package exec_test

// The graft's adoption rule: a subplan whose own operators are unchanged
// keeps its executor when its input is a rebuilt scan/project cone that looks
// the same to its queries — and only then, and only if the executor ran once
// per window.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// TestGraftReattachesOverRebuiltScan serves two queries, each aggregating
// over one shared filtered scan, then admits a third onto that scan and later
// retires it. Both grafts change the scan's query set, so the scan is rebuilt;
// the two original aggregates are reattached over it instead of replayed. The
// negative cases put a join or an aggregate below the shared boundary, whose
// output is no per-query view of its input: nothing is reattached. Every run
// must end byte-equal to the all-replay graft and to a from-scratch run.
func TestGraftReattachesOverRebuiltScan(t *testing.T) {
	cases := []struct {
		name       string
		sql        [3]string
		reattached int
	}{
		{"scan", [3]string{
			"SELECT c0, SUM(c1) FROM t0 WHERE c2 > 2 GROUP BY c0",
			"SELECT c0, COUNT(*) FROM t0 WHERE c2 > 3 GROUP BY c0",
			"SELECT c0, MAX(c1) FROM t0 WHERE c2 < 2 GROUP BY c0",
		}, 2},
		{"join", [3]string{
			"SELECT t0.c1, SUM(t1.c3) FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c2 > 2 GROUP BY t0.c1",
			"SELECT t0.c1, COUNT(*) FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c2 > 3 GROUP BY t0.c1",
			"SELECT t0.c1, MAX(t1.c3) FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c2 < 2 GROUP BY t0.c1",
		}, 0},
		{"aggregate", [3]string{
			"SELECT MAX(s) FROM (SELECT c0, SUM(c1) AS s FROM t0 WHERE c2 > 2 GROUP BY c0) x",
			"SELECT MIN(s) FROM (SELECT c0, SUM(c1) AS s FROM t0 WHERE c2 > 3 GROUP BY c0) x",
			"SELECT AVG(s) FROM (SELECT c0, SUM(c1) AS s FROM t0 WHERE c2 < 2 GROUP BY c0) x",
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, gs := range graftChurn(t, tc.sql) {
				if gs.Reattached != tc.reattached || gs.Adopted < gs.Reattached {
					t.Errorf("graft %d: %+v, want %d reattached", i, gs, tc.reattached)
				}
			}
		})
	}
}

// graftChurn runs five windows: queries 0 and 1 from the start, query 2
// admitted before window 2 and retired before window 4. Each of the
// transplanting run's grafts comes after one that fails (failGraft). It
// checks the transplanting run against the all-replay run after every
// window, and both against a from-scratch run of the final plan at the end —
// results, report and every operator's work — and returns the transplanting
// run's two graft statistics.
func graftChurn(t *testing.T, sql [3]string) []*exec.GraftStats {
	t.Helper()
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindInt} }
	w := &oracle.Workload{
		Tables: []oracle.TableDef{
			{Name: "t0", Cols: []catalog.Column{col("c0"), col("c1"), col("c2")}},
			{Name: "t1", Cols: []catalog.Column{col("c0"), col("c3")}},
		},
		SQL: sql[:],
	}
	qs, err := w.Bind()
	if err != nil {
		t.Fatal(err)
	}
	before := graphOf(t, qs[:2])
	mid := graphOf(t, qs)
	final := graphOf(t, []plan.Query{qs[0], qs[1], {}})
	// The original queries' subplans keep their own operators throughout;
	// whether they are reattached depends on their inputs alone.
	localB, localM := mqo.LocalStateSignatures(before), mqo.LocalStateSignatures(mid)
	for q := 0; q < 2; q++ {
		if localB[before.QueryRootSubplan[q].ID] != localM[mid.QueryRootSubplan[q].ID] {
			t.Fatalf("query %d's root subplan changed its own operators", q)
		}
	}

	ival := func(v int) value.Value { return value.Int(int64(v)) }
	win := func(k int) exec.DeltaDataset {
		ds := exec.DeltaDataset{}
		for i := 0; i < 6; i++ {
			ds["t0"] = append(ds["t0"], oracle.Ins(ival(i%3), ival(10*k+i), ival((i+k)%5)))
		}
		if k > 0 {
			ds["t0"] = append(ds["t0"], oracle.Del(ival(0), ival(10*(k-1)), ival((k-1)%5)))
		}
		for i := 0; i < 3; i++ {
			ds["t1"] = append(ds["t1"], oracle.Ins(ival(i), ival(k+i)))
		}
		return ds
	}
	step := func(r *exec.Runner, g *mqo.Graph, k int) {
		r.StartWindow(win(k))
		r.ArriveWindow(1, 1)
		for id := range g.Subplans {
			r.RunSubplan(id)
		}
	}
	graphs := map[int]*mqo.Graph{2: mid, 4: final}
	newRunner := func(g *mqo.Graph) *exec.Runner {
		r, err := exec.NewDeltaRunner(g, exec.DeltaDataset{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	live, replay := newRunner(before), newRunner(before)
	g := before
	var stats []*exec.GraftStats
	for k := 0; k < 5; k++ {
		if ng, ok := graphs[k]; ok {
			failGraft(t, live, ng)
			gs, err := live.Graft(ng, exec.GraftOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := replay.Graft(ng, exec.GraftOptions{DisableTransplant: true})
			if err != nil {
				t.Fatal(err)
			}
			if gs.Replayed != gs.Rebuilt*k || rs.Replayed != len(ng.Subplans)*k || rs.Reattached != 0 {
				t.Errorf("window %d: graft %+v, all-replay graft %+v: replays must cover exactly the rebuilt subplans over %d windows", k, gs, rs, k)
			}
			stats = append(stats, gs)
			g = ng
		}
		step(live, g, k)
		step(replay, g, k)
		for q := range g.QueryRootSubplan {
			if got, want := live.SortedResults(q), replay.SortedResults(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, slot %d: transplanted %v, replayed %v", k, q, got, want)
			}
		}
	}
	ref := newRunner(final)
	for k := 0; k < 5; k++ {
		step(ref, final, k)
	}
	for name, r := range map[string]*exec.Runner{"transplanted": live, "replayed": replay} {
		for q := 0; q < 2; q++ {
			if got, want := r.SortedResults(q), ref.SortedResults(q); !reflect.DeepEqual(got, want) {
				t.Errorf("%s slot %d: %v, from scratch %v", name, q, got, want)
			}
		}
		if got, want := r.ReportNow(), ref.ReportNow(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s report %+v, from scratch %+v", name, got, want)
		}
		for _, s := range final.Subplans {
			for _, o := range s.Ops {
				if got, want := r.Execs[s.ID].OpWork(o), ref.Execs[s.ID].OpWork(o); got != want {
					t.Errorf("%s op %d: %v, from scratch %v", name, o.ID, got, want)
				}
			}
		}
	}
	return stats
}

// failGraft grafts r onto g with a replay that panics on its second
// execution, after one rebuilt subplan replayed a window, and requires the
// error back and the registry's refcounts to balance against r's executors:
// the failed graft must leave no executor, handle or state behind.
func failGraft(t *testing.T, r *exec.Runner, g *mqo.Graph) {
	t.Helper()
	replays := 0
	exec.DebugSlowSubplan = func(int) int64 {
		if replays++; replays == 2 {
			panic("injected replay failure")
		}
		return 0
	}
	defer func() { exec.DebugSlowSubplan = nil }()
	if _, err := r.Graft(g, exec.GraftOptions{}); err == nil || !strings.HasSuffix(err.Error(), " panicked: injected replay failure") {
		t.Fatalf("graft with a panicking replay returned %v", err)
	}
	if err := r.CheckArrangements(); err != nil {
		t.Fatalf("after a failed graft: %v", err)
	}
}

// TestGraftPaceAboveOne grafts a plan whose subplans fired twice per window.
// Admitting a query onto the shared t0 scan rebuilds it, so the aggregates
// above it could only keep their executors through a re-pointed input, whose
// per-window correction needs one execution per window: they are rebuilt.
// The t1 query's subplans are state-identical and read nothing new, so they
// are adopted whatever their pace. At pace 1 the same aggregates are
// reattached.
func TestGraftPaceAboveOne(t *testing.T) {
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindInt} }
	w := &oracle.Workload{
		Tables: []oracle.TableDef{
			{Name: "t0", Cols: []catalog.Column{col("c0"), col("c1"), col("c2")}},
			{Name: "t1", Cols: []catalog.Column{col("c0"), col("c3")}},
		},
		SQL: []string{
			"SELECT c0, SUM(c1) FROM t0 WHERE c2 > 2 GROUP BY c0",
			"SELECT c0, COUNT(*) FROM t0 WHERE c2 > 3 GROUP BY c0",
			"SELECT c0, SUM(c3) FROM t1 WHERE c3 > 1 GROUP BY c0",
			"SELECT c0, MAX(c1) FROM t0 WHERE c2 < 2 GROUP BY c0",
		},
	}
	qs, err := w.Bind()
	if err != nil {
		t.Fatal(err)
	}
	before, after := graphOf(t, qs[:3]), graphOf(t, qs)
	match := mqo.MatchSubplans(before, after) // after's subplans state-identical to one of before's
	identical := len(match)
	if identical == 0 || identical == len(after.Subplans) {
		t.Fatalf("%d of %d subplans state-identical across the admission", identical, len(after.Subplans))
	}

	ival := func(v int) value.Value { return value.Int(int64(v)) }
	win := func(k int) exec.DeltaDataset {
		ds := exec.DeltaDataset{}
		for i := 0; i < 6; i++ {
			ds["t0"] = append(ds["t0"], oracle.Ins(ival(i%3), ival(10*k+i), ival((i+k)%5)))
			ds["t1"] = append(ds["t1"], oracle.Ins(ival(i%2), ival(k+i)))
		}
		return ds
	}
	step := func(r *exec.Runner, g *mqo.Graph, k, pace int) {
		r.StartWindow(win(k))
		for j := 1; j <= pace; j++ {
			r.ArriveWindow(j, pace)
			for id := range g.Subplans {
				r.RunSubplan(id)
			}
		}
	}
	for _, pace := range []int{1, 2} {
		t.Run(fmt.Sprintf("pace=%d", pace), func(t *testing.T) {
			runners := make([]*exec.Runner, 2) // transplanting, all-replay
			stats := make([]*exec.GraftStats, 2)
			for i := range runners {
				r, err := exec.NewDeltaRunner(before, exec.DeltaDataset{})
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 2; k++ {
					step(r, before, k, pace)
				}
				if stats[i], err = r.Graft(after, exec.GraftOptions{DisableTransplant: i == 1}); err != nil {
					t.Fatal(err)
				}
				runners[i] = r
			}
			gs := stats[0]
			wantReattached := 2
			if pace > 1 {
				wantReattached = 0
			}
			if gs.Reattached != wantReattached || gs.Adopted != identical+gs.Reattached || gs.Rebuilt != len(after.Subplans)-gs.Adopted {
				t.Errorf("graft %+v, want %d state-identical adopted and %d reattached", gs, identical, wantReattached)
			}
			live, replay := runners[0], runners[1]
			// Every subplan that is not state-identical carries the history
			// a from-scratch run over the same windows would have — rebuilt
			// or reattached, it matches the all-replay run, down to its last
			// execution, which right after the graft is the last sealed
			// window's.
			sameHistory := func(when string) {
				for _, s := range after.Subplans {
					if _, ok := match[s.ID]; ok {
						continue
					}
					l, rp := live.Execs[s.ID], replay.Execs[s.ID]
					if l.Executions() != rp.Executions() || l.TotalWork() != rp.TotalWork() || l.FinalWork() != rp.FinalWork() {
						t.Errorf("%s: subplan %d: %d executions %+v last %+v, all-replay %d executions %+v last %+v", when,
							s.ID, l.Executions(), l.TotalWork(), l.FinalWork(), rp.Executions(), rp.TotalWork(), rp.FinalWork())
					}
				}
			}
			sameHistory("after the graft")
			for _, r := range runners {
				step(r, after, 2, pace)
			}
			sameHistory("after window 2")
			for q := range qs {
				if got, want := live.SortedResults(q), replay.SortedResults(q); !reflect.DeepEqual(got, want) {
					t.Errorf("query %d: transplanted %v, replayed %v", q, got, want)
				}
			}
		})
	}
}

// TestGraftScansTableThatArrivedUnscanned feeds a runner windows of two
// tables while its plan scans only t0, then admits a query over t1. The
// graft must see t1's whole history — arrived in the construction dataset or
// in later windows, never scanned — and end with the results and report of a
// from-scratch runner of the final plan over the same windows.
func TestGraftScansTableThatArrivedUnscanned(t *testing.T) {
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindInt} }
	w := &oracle.Workload{
		Tables: []oracle.TableDef{
			{Name: "t0", Cols: []catalog.Column{col("c0"), col("c1"), col("c2")}},
			{Name: "t1", Cols: []catalog.Column{col("c0"), col("c3")}},
		},
		SQL: []string{
			"SELECT c0, SUM(c1) FROM t0 WHERE c2 > 1 GROUP BY c0",
			"SELECT c0, COUNT(*), SUM(c3) FROM t1 WHERE c3 > 1 GROUP BY c0",
		},
	}
	qs, err := w.Bind()
	if err != nil {
		t.Fatal(err)
	}
	before, after := graphOf(t, []plan.Query{qs[0], {}}), graphOf(t, qs)
	ival := func(v int) value.Value { return value.Int(int64(v)) }
	win := func(k int) exec.DeltaDataset {
		ds := exec.DeltaDataset{}
		for i := 0; i < 5; i++ {
			ds["t0"] = append(ds["t0"], oracle.Ins(ival(i%2), ival(10*k+i), ival((i+k)%4)))
			ds["t1"] = append(ds["t1"], oracle.Ins(ival(i%3), ival(k+i)))
		}
		if k > 0 {
			ds["t1"] = append(ds["t1"], oracle.Del(ival(0), ival(k-1)))
		}
		return ds
	}
	const graftAt, windows = 3, 5
	for _, inConstruction := range []bool{false, true} {
		t.Run(fmt.Sprintf("construction=%v", inConstruction), func(t *testing.T) {
			// run drives g's runner through windows [from, to); window 0 is
			// the construction dataset when inConstruction.
			run := func(r *exec.Runner, g *mqo.Graph, from, to int) {
				for k := from; k < to; k++ {
					if k > 0 || !inConstruction {
						r.StartWindow(win(k))
					}
					r.ArriveWindow(1, 1)
					for id := range g.Subplans {
						r.RunSubplan(id)
					}
				}
			}
			newRunner := func(g *mqo.Graph) *exec.Runner {
				data := exec.DeltaDataset{}
				if inConstruction {
					data = win(0)
				}
				r, err := exec.NewDeltaRunner(g, data)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			live := newRunner(before)
			run(live, before, 0, graftAt)
			if _, err := live.Graft(after, exec.GraftOptions{}); err != nil {
				t.Fatal(err)
			}
			run(live, after, graftAt, windows)
			ref := newRunner(after)
			run(ref, after, 0, windows)
			for q := range qs {
				got, want := live.SortedResults(q), ref.SortedResults(q)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("query %d: grafted %v, from scratch %v", q, got, want)
				}
			}
			if got, want := live.ReportNow(), ref.ReportNow(); !reflect.DeepEqual(got, want) {
				t.Errorf("grafted report %+v, from scratch %+v", got, want)
			}
		})
	}
}
