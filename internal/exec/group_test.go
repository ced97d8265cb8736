package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// parallelHarness builds a workload with several independent queries so
// waves actually contain multiple subplans.
func parallelHarness(t *testing.T) (*harness, Dataset) {
	t.Helper()
	h := newHarness(t, map[string]string{
		"agg": `SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey`,
		"cnt": `SELECT l_partkey, COUNT(*) AS c FROM lineitem GROUP BY l_partkey`,
		"join": `SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
		"nested": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq
			FROM lineitem GROUP BY l_partkey) t`,
	}, []string{"agg", "cnt", "join", "nested"})
	var line [][2]int64
	for i := 0; i < 120; i++ {
		line = append(line, [2]int64{int64(i % 7), int64(i)})
	}
	var parts [][3]interface{}
	for i := 0; i < 7; i++ {
		parts = append(parts, [3]interface{}{i, string(rune('A' + i)), i * 3})
	}
	return h, Dataset{"lineitem": lineitemRows(line...), "part": partRows(parts...)}
}

// driven builds a fresh runner over the parallel workload and drives it.
func driven(t *testing.T, drive func(*Runner) (*Report, error)) (*Runner, *Report) {
	t.Helper()
	h, data := parallelHarness(t)
	r, err := New(h.graph, InsertStream(data), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := drive(r)
	if err != nil {
		t.Fatal(err)
	}
	rep.Wall = 0
	return r, rep
}

// TestDriversAgree is the property behind having one group executor: Run(p),
// RunParallel(p, 1) and RunParallel(p, 4) are the same schedule on different
// worker counts, so the whole Report, every query's results and the reuse
// counters must be equal on random pace configurations.
func TestDriversAgree(t *testing.T) { overOptions(t, testDriversAgree) }

func testDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		h, _ := parallelHarness(t)
		paces := make([]int, len(h.graph.Subplans))
		for i := range paces {
			paces[i] = 1 + rng.Intn(6)
		}
		// Clamp to the parent <= child pace order the optimizer guarantees.
		for pass := 0; pass < len(paces); pass++ {
			for _, s := range h.graph.Subplans {
				for _, c := range s.Children {
					if paces[s.ID] > paces[c.ID] {
						paces[s.ID] = paces[c.ID]
					}
				}
			}
		}
		rSeq, repSeq := driven(t, func(r *Runner) (*Report, error) { return r.Run(paces) })
		for _, workers := range []int{1, 4} {
			rPar, repPar := driven(t, func(r *Runner) (*Report, error) { return r.RunParallel(paces, workers) })
			if !reflect.DeepEqual(repSeq, repPar) {
				t.Errorf("trial %d paces %v workers %d: report\n%+v\nwant Run's\n%+v", trial, paces, workers, repPar, repSeq)
			}
			if got, want := rPar.ReuseStats(), rSeq.ReuseStats(); got != want {
				t.Errorf("trial %d paces %v workers %d: reuse stats %+v, want %+v", trial, paces, workers, got, want)
			}
			for q := 0; q < 4; q++ {
				if !reflect.DeepEqual(rSeq.SortedResults(q), rPar.SortedResults(q)) {
					t.Errorf("trial %d paces %v workers %d: query %d results differ", trial, paces, workers, q)
				}
			}
		}
	}
}

// TestOperatorPanicIsAnError makes one subplan's executions panic (through
// the DebugSlowSubplan hook, which every firing calls) and requires every
// driver, at one worker and at four, to return an error naming that subplan
// instead of taking the process down.
func TestOperatorPanicIsAnError(t *testing.T) { overOptions(t, testOperatorPanicIsAnError) }

func testOperatorPanicIsAnError(t *testing.T) {
	h, _ := parallelHarness(t)
	bad := len(h.graph.Subplans) / 2
	DebugSlowSubplan = func(id int) int64 {
		if id == bad {
			panic("injected operator failure")
		}
		return 0
	}
	defer func() { DebugSlowSubplan = nil }()
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 2
	}
	want := fmt.Sprintf("exec: subplan %d panicked: injected operator failure", bad)
	for name, drive := range map[string]func(*Runner) (*Report, error){
		"Run":           func(r *Runner) (*Report, error) { return r.Run(paces) },
		"RunParallel/1": func(r *Runner) (*Report, error) { return r.RunParallel(paces, 1) },
		"RunParallel/4": func(r *Runner) (*Report, error) { return r.RunParallel(paces, 4) },
	} {
		h, data := parallelHarness(t)
		r, err := New(h.graph, InsertStream(data), h.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drive(r); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
	// The whole group at once, as the scheduler and Session submit it: the
	// firings of the failing wave still complete and report their work.
	for _, n := range []int{1, 4} {
		h, data := parallelHarness(t)
		r, err := New(h.graph, InsertStream(data), h.opts)
		if err != nil {
			t.Fatal(err)
		}
		group, err := Schedule(make1s(len(h.graph.Subplans)))
		if err != nil {
			t.Fatal(err)
		}
		r.ArriveWindow(1, 1)
		works, err := r.RunGroup(group, n, "exec", nil)
		if err == nil || err.Error() != want {
			t.Errorf("RunGroup n=%d: error %v, want %q", n, err, want)
		}
		for i, f := range group {
			if r.depth[f.Subplan] <= r.depth[bad] && f.Subplan != bad && works[i].Total() == 0 {
				t.Errorf("RunGroup n=%d: subplan %d (depth %d) did not run", n, f.Subplan, r.depth[f.Subplan])
			}
		}
	}
}

// TestRunnerKeepsFirstFailure: a failed firing group leaves operator state
// half-applied, so the runner keeps its error. With the fault cleared, every
// later RunGroup, Run, RunParallel and Graft runs nothing and returns an
// error wrapping that first failure; RunSubplan stays a bare execution.
func TestRunnerKeepsFirstFailure(t *testing.T) {
	h, data := parallelHarness(t)
	r, err := New(h.graph, InsertStream(data), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	group, err := Schedule(make1s(len(h.graph.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Fatalf("fresh runner reports %v", r.Err())
	}
	DebugSlowSubplan = func(int) int64 { panic("injected operator failure") }
	defer func() { DebugSlowSubplan = nil }()
	r.ArriveWindow(1, 1)
	_, err = r.RunGroup(group, 4, "exec", nil)
	DebugSlowSubplan = nil
	first := r.Err()
	if err == nil || first != err {
		t.Fatalf("RunGroup error %v, runner keeps %v; want the same failure", err, first)
	}
	work := r.ReportNow().TotalWork
	if works, err := r.RunGroup(group, 1, "exec", nil); works != nil || !errors.Is(err, first) {
		t.Errorf("RunGroup after failure: %v, %v; want no works and an error wrapping %q", works, err, first)
	}
	if _, err := r.Run(make1s(len(h.graph.Subplans))); !errors.Is(err, first) {
		t.Errorf("Run after failure: %v, want an error wrapping %q", err, first)
	}
	if _, err := r.RunParallel(make1s(len(h.graph.Subplans)), 4); !errors.Is(err, first) {
		t.Errorf("RunParallel after failure: %v, want an error wrapping %q", err, first)
	}
	g := r.Graph
	if _, err := r.Graft(g, GraftOptions{}); !errors.Is(err, first) || r.Graph != g {
		t.Errorf("Graft after failure: %v, want an error wrapping %q and the old graph", err, first)
	}
	if got := r.ReportNow().TotalWork; got != work || r.Err() != first {
		t.Errorf("calls after failure ran: TotalWork %d → %d, Err %v", work, got, r.Err())
	}
	if w := r.RunSubplan(group[0].Subplan); w.Total() == 0 {
		t.Error("RunSubplan after failure did nothing")
	}
}

func make1s(n int) []int {
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

func TestRunParallelValidation(t *testing.T) { overOptions(t, testRunParallelValidation) }

func testRunParallelValidation(t *testing.T) {
	h, data := parallelHarness(t)
	r, err := New(h.graph, InsertStream(data), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunParallel([]int{1}, 2); err == nil {
		t.Error("wrong pace count accepted")
	}
	bad := make([]int, len(h.graph.Subplans))
	if _, err := r.RunParallel(bad, 2); err == nil {
		t.Error("pace 0 accepted")
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) { overOptions(t, testRunParallelDefaultWorkers) }

func testRunParallelDefaultWorkers(t *testing.T) {
	h, data := parallelHarness(t)
	r, err := New(h.graph, InsertStream(data), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 2
	}
	if _, err := r.RunParallel(paces, 0); err != nil {
		t.Fatalf("default worker count: %v", err)
	}
}
