package pace_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/trace"
)

var update = flag.Bool("update", false, "regenerate testdata/search_golden.json")

// The search golden uses BenchmarkPlanJob's configuration: the 22 queries at
// SF 0.02, MaxPace 40, query q at relative level (q+rotation) mod 4.
const (
	searchSF      = 0.02
	searchMaxPace = 40
	// reverseStart is the uniform configuration the reverse searches start
	// from.
	reverseStart = 6
)

var searchLevels = []float64{1.0, 0.5, 0.2, 0.1}

// searchRecord pins one search: where it ended, how it got there and what it
// cost. Chains counts the chain raises taken; Decisions is a digest of the
// full decision trace — every step's action, chosen subplan and every
// candidate's score, bit for bit.
type searchRecord struct {
	Search    string
	Rotation  int
	Paces     string
	Chains    int
	Steps     int64
	Evals     int64
	Sims      int64
	Total     string
	Decisions string
}

func searchQueries(t *testing.T) ([]plan.Query, *mqo.Graph) {
	t.Helper()
	cat, err := tpch.NewCatalog(searchSF)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return bound, g
}

// rotationConstraints returns the absolute constraints of one rotation:
// query q at relative level (q+rotation) mod 4.
func rotationConstraints(t *testing.T, queries []plan.Query, rotation int) []float64 {
	t.Helper()
	rel := make([]float64, len(queries))
	for q := range rel {
		rel[q] = searchLevels[(q+rotation)%len(searchLevels)]
	}
	abs, err := opt.AbsoluteConstraints(queries, rel)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// digest hashes a decision trace with every float as its IEEE-754 bits.
func digest(ds []trace.Decision) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s|%d|%s|%d|%016x|%t|%s", d.Phase, d.Step, d.Action, d.Subplan,
			math.Float64bits(d.Score), d.Accepted, d.Detail)
		for _, c := range d.Candidates {
			fmt.Fprintf(h, "|%d=%016x", c.Subplan, math.Float64bits(c.Score))
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runSearch runs one search on a cold model. With traced set it records the
// decision trace too (the counts and the result must not depend on it).
func runSearch(t *testing.T, g *mqo.Graph, abs []float64, search string, rotation int, traced bool) searchRecord {
	t.Helper()
	m := cost.NewModel(g)
	o, err := pace.NewOptimizer(m, abs, searchMaxPace)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		o.Trace = trace.New()
	}
	var paces []int
	var ev cost.Eval
	phase := "pace.greedy"
	if search == "reverse" {
		phase = "pace.reverse"
		start := make([]int, len(g.Subplans))
		for i := range start {
			start[i] = reverseStart
		}
		paces, ev, err = o.ReverseGreedy(start)
	} else {
		paces, ev, err = o.Greedy()
	}
	if err != nil {
		t.Fatal(err)
	}
	rec := searchRecord{
		Search: search, Rotation: rotation, Paces: fmt.Sprint(paces),
		Steps: o.Steps, Evals: o.Evals, Sims: m.Sims,
		Total: fmt.Sprintf("%016x", math.Float64bits(ev.Total)),
	}
	if traced {
		ds := o.Trace.Decisions(phase)
		rec.Decisions = digest(ds)
		for _, d := range ds {
			if d.Action == "chain" {
				rec.Chains++
			}
		}
	}
	return rec
}

// TestSearchGolden pins the search path of the greedy and reverse-greedy pace
// searches over the 22-query graph at the four constraint rotations
// BenchmarkPlanJob cycles through: final pace vector, Steps, Evals, Sims, the
// bits of Eval.Total and a digest of the decision trace. The file was
// recorded before evaluations became incremental; regenerate with `go test
// ./internal/pace -run TestSearchGolden -update` only for an intended change
// of the search or the cost model. Tracing must not change the search.
func TestSearchGolden(t *testing.T) {
	path := filepath.Join("testdata", "search_golden.json")
	queries, g := searchQueries(t)
	var got []searchRecord
	for rot := range searchLevels {
		abs := rotationConstraints(t, queries, rot)
		for _, search := range []string{"greedy", "reverse"} {
			rec := runSearch(t, g, abs, search, rot, true)
			got = append(got, rec)
			plain := runSearch(t, g, abs, search, rot, false)
			plain.Decisions, plain.Chains = rec.Decisions, rec.Chains
			if !reflect.DeepEqual(plain, rec) {
				t.Errorf("%s rotation %d: tracing changed the search:\n traced %+v\nuntraced %+v", search, rot, rec, plain)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want []searchRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("search records: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s rotation %d:\n got %+v\nwant %+v", want[i].Search, want[i].Rotation, got[i], want[i])
		}
	}
}
