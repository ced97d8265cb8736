package cost_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

var update = flag.Bool("update", false, "regenerate testdata/sim_golden.json")

const (
	goldenSF      = 0.02
	goldenMaxPace = 40
)

// goldenPaces are the per-subplan paces every subplan is frozen at.
var goldenPaces = []int{1, 2, 7, 40}

// goldenLevels are the paper's relative constraints; the three constraint
// draws whose whole plans are frozen give query q level (q+shift) mod 4.
var goldenLevels = []float64{1.0, 0.5, 0.2, 0.1}

// bits renders a float64 as the hex of its IEEE-754 bits: the golden pins
// every value exactly, summation order included.
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

type goldenProfile struct {
	Gross, Net, DeleteShare string
	// PerQuery lists (query id, bits) in ascending query order.
	PerQuery [][2]string
	// Distinct is Cols[i].Distinct per column.
	Distinct []string
}

type goldenSubplan struct {
	Config       string
	Subplan      int
	Pace         int
	PrivateTotal string
	PrivateFinal string
	Out          goldenProfile
}

type goldenOps struct {
	Subplan int
	Pace    int
	// Ops maps operator id to its accumulated output profile.
	Ops map[string]goldenProfile
}

type goldenPlan struct {
	Rel      []float64
	Paces    []int
	EstTotal string
	Sims     int64
	Evals    int64
	Accepted int
}

type golden struct {
	Subplans []goldenSubplan
	Ops      []goldenOps
	Plans    []goldenPlan
}

func profileGolden(p cost.Profile) goldenProfile {
	g := goldenProfile{Gross: bits(p.Gross), Net: bits(p.Net), DeleteShare: bits(p.DeleteShare)}
	for i, q := range p.Queries.Members() {
		g.PerQuery = append(g.PerQuery, [2]string{fmt.Sprint(q), bits(p.PerQuery[i])})
	}
	for _, c := range p.Cols {
		g.Distinct = append(g.Distinct, bits(c.Distinct))
	}
	return g
}

// bindTPCH binds the given TPC-H queries against the golden catalog.
func bindTPCH(t testing.TB, qs []tpch.Query) []plan.Query {
	t.Helper()
	cat, err := tpch.NewCatalog(goldenSF)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// sharedGraph builds the shared subplan graph of the bound queries.
func sharedGraph(t testing.TB, bound []plan.Query) *mqo.Graph {
	t.Helper()
	sp, err := mqo.Build(bound)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tpchQueries(t testing.TB) []plan.Query { return bindTPCH(t, tpch.All()) }

func tpchGraph(t testing.TB) *mqo.Graph { return sharedGraph(t, tpchQueries(t)) }

// goldenConfigs returns the frozen pace configurations: one uniform vector
// per golden pace, plus a mixed one (subplan i at goldenPaces[i mod 4],
// lowered so no parent out-paces a child) so subplans also see inputs
// produced at paces other than their own.
func goldenConfigs(g *mqo.Graph) (names []string, configs [][]int) {
	for _, p := range goldenPaces {
		v := make([]int, len(g.Subplans))
		for i := range v {
			v[i] = p
		}
		names = append(names, fmt.Sprintf("uniform%d", p))
		configs = append(configs, v)
	}
	mixed := make([]int, len(g.Subplans))
	for _, s := range g.Subplans { // children-first
		mixed[s.ID] = goldenPaces[(s.ID+3)%len(goldenPaces)]
		for _, c := range s.Children {
			if mixed[s.ID] > mixed[c.ID] {
				mixed[s.ID] = mixed[c.ID]
			}
		}
	}
	return append(names, "mixed"), append(configs, mixed)
}

func computeGolden(t *testing.T) golden {
	t.Helper()
	var out golden
	g := tpchGraph(t)
	names, configs := goldenConfigs(g)
	for i, paces := range configs {
		m := cost.NewModel(g)
		ev, err := m.Evaluate(paces)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := m.OutputProfiles(paces)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range g.Subplans {
			out.Subplans = append(out.Subplans, goldenSubplan{
				Config:       names[i],
				Subplan:      s.ID,
				Pace:         paces[s.ID],
				PrivateTotal: bits(ev.SubTotal[s.ID]),
				PrivateFinal: bits(ev.SubFinal[s.ID]),
				Out:          profileGolden(outs[s.ID]),
			})
		}
	}

	// Per-op profiles (collect=true) for the subplan with the most
	// operators and the multi-operator subplan shared by the most queries.
	var widest, mostShared *mqo.Subplan
	for _, s := range g.Subplans {
		if widest == nil || len(s.Ops) > len(widest.Ops) {
			widest = s
		}
		if len(s.Ops) > 1 && (mostShared == nil || s.Queries.Count() > mostShared.Queries.Count()) {
			mostShared = s
		}
	}
	m := cost.NewModel(g)
	for _, s := range []*mqo.Subplan{widest, mostShared} {
		for _, paces := range [][]int{configs[2], configs[4]} { // uniform7, mixed
			ops, err := m.OpOutputs(s, paces)
			if err != nil {
				t.Fatal(err)
			}
			rec := goldenOps{Subplan: s.ID, Pace: paces[s.ID], Ops: make(map[string]goldenProfile, len(ops))}
			for o, p := range ops {
				rec.Ops[fmt.Sprint(o.ID)] = profileGolden(p)
			}
			out.Ops = append(out.Ops, rec)
		}
	}

	// Whole plans: exactly what opt.Plan(IShare) runs, driven directly so
	// the decomposer's evaluation count is visible.
	queries := tpchQueries(t)
	for shift := 0; shift < 3; shift++ {
		rel := make([]float64, len(queries))
		for q := range rel {
			rel[q] = goldenLevels[(q+shift)%len(goldenLevels)]
		}
		abs, err := opt.AbsoluteConstraints(queries, rel)
		if err != nil {
			t.Fatal(err)
		}
		d := &decompose.Decomposer{
			Queries:     queries,
			Constraints: abs,
			Opts:        decompose.Options{MaxPace: goldenMaxPace, Unshare: true, Partial: true},
		}
		res, err := d.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		planned, err := opt.Plan(opt.IShare, opt.Request{Queries: queries, Constraints: abs, MaxPace: goldenMaxPace})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned.Jobs[0].Paces, res.Paces) || planned.EstTotal != res.Eval.Total {
			t.Fatalf("draw %d: opt.Plan(IShare) and the decomposer it wraps disagree", shift)
		}
		out.Plans = append(out.Plans, goldenPlan{
			Rel:      rel,
			Paces:    res.Paces,
			EstTotal: bits(res.Eval.Total),
			Sims:     res.Model.Sims,
			Evals:    d.Evals,
			Accepted: d.Accepted,
		})
	}
	return out
}

// TestSimGolden freezes the simulator bit for bit: every subplan of the
// 22-query TPC-H shared graph at every golden pace (private total and final
// work, the whole output profile), per-operator profiles for two subplans,
// and three whole iShare plans with their optimizer traffic counts. The file
// was generated before the simulator was compiled into per-subplan plans;
// regenerate with `go test ./internal/cost -run TestSimGolden -update` only
// for an intended change of the cost model.
func TestSimGolden(t *testing.T) {
	path := filepath.Join("testdata", "sim_golden.json")
	got := computeGolden(t)
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
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Subplans) != len(want.Subplans) {
		t.Fatalf("subplan records: got %d, want %d", len(got.Subplans), len(want.Subplans))
	}
	for i := range want.Subplans {
		if !reflect.DeepEqual(got.Subplans[i], want.Subplans[i]) {
			t.Errorf("subplan %d (%s, pace %d):\n got %+v\nwant %+v", want.Subplans[i].Subplan,
				want.Subplans[i].Config, want.Subplans[i].Pace, got.Subplans[i], want.Subplans[i])
		}
	}
	if !reflect.DeepEqual(got.Ops, want.Ops) {
		t.Errorf("per-operator profiles differ:\n got %+v\nwant %+v", got.Ops, want.Ops)
	}
	if !reflect.DeepEqual(got.Plans, want.Plans) {
		t.Errorf("plans differ:\n got %+v\nwant %+v", got.Plans, want.Plans)
	}
}
