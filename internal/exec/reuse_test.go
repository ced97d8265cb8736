package exec

import (
	"reflect"
	"testing"
)

// reuseWindows drives three trigger windows over a two-query plan whose
// cones are disjoint (q1 reads lineitem, q2 reads part): window 0 feeds both
// tables, window 1 only lineitem (the part cone idles), window 2 only part
// (the lineitem cone idles). Every subplan fires twice per window.
func reuseWindows(t *testing.T, r *Runner, toggle bool) {
	t.Helper()
	li := InsertStream(Dataset{"x": lineitemRows(
		[2]int64{1, 10}, [2]int64{2, 20}, [2]int64{1, 5}, [2]int64{3, 7},
		[2]int64{2, 2}, [2]int64{1, 1},
	)})["x"]
	pa := InsertStream(Dataset{"x": partRows(
		[3]interface{}{1, "A", 5},
		[3]interface{}{2, "B", 15},
		[3]interface{}{3, "C", 20},
	)})["x"]
	windows := []DeltaDataset{
		{"lineitem": li[:3], "part": pa[:2]},
		{"lineitem": li[3:]},
		{"part": pa[2:]},
	}
	for w, arrivals := range windows {
		if toggle && w > 0 {
			o := r.opts
			o.NoReuse = w%2 == 0
			r.SetOptions(o)
		}
		r.StartWindow(arrivals)
		for j := 1; j <= 2; j++ {
			r.ArriveWindow(j, 2)
			for id := range r.Graph.Subplans {
				r.RunSubplan(id)
			}
		}
	}
}

// TestReuseInvariance proves the window-level reuse gate is observationally
// invisible: with reuse on, off, or toggled at window boundaries, query
// results and the full modeled-work report are byte-identical, while the
// skippable count (clean-cone firings, counted regardless of the knob) is
// identical everywhere and only the physical skipped count differs.
func TestReuseInvariance(t *testing.T) { overOptions(t, testReuseInvariance) }

func testReuseInvariance(t *testing.T) {
	sqls := map[string]string{
		"q1": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
		"q2": "SELECT p_brand FROM part WHERE p_size > 10",
	}
	order := []string{"q1", "q2"}

	type outcome struct {
		res1, res2 []string
		rep        *Report
		stats      ReuseStats
	}
	runMode := func(reuse, toggle bool) outcome {
		h := newHarness(t, sqls, order)
		o := h.opts
		o.NoReuse = !reuse
		r, err := New(h.graph, DeltaDataset{}, o)
		if err != nil {
			t.Fatal(err)
		}
		reuseWindows(t, r, toggle)
		return outcome{r.SortedResults(0), r.SortedResults(1), r.ReportNow(), r.ReuseStats()}
	}

	on := runMode(true, false)
	off := runMode(false, false)
	toggled := runMode(true, true)

	for _, c := range []struct {
		name string
		got  outcome
	}{{"off", off}, {"toggled", toggled}} {
		if !reflect.DeepEqual(on.res1, c.got.res1) || !reflect.DeepEqual(on.res2, c.got.res2) {
			t.Errorf("reuse %s results diverge: %v/%v vs on %v/%v",
				c.name, c.got.res1, c.got.res2, on.res1, on.res2)
		}
		if !reflect.DeepEqual(on.rep, c.got.rep) {
			t.Errorf("reuse %s report diverges:\n%+v\n%+v", c.name, c.got.rep, on.rep)
		}
		if on.stats.Skippable != c.got.stats.Skippable {
			t.Errorf("skippable count knob-dependent: on=%d %s=%d",
				on.stats.Skippable, c.name, c.got.stats.Skippable)
		}
	}
	if on.stats.Skippable == 0 {
		t.Error("idle-cone windows produced no skippable firings")
	}
	if on.stats.Skipped != on.stats.Skippable {
		t.Errorf("reuse on skipped %d of %d skippable firings", on.stats.Skipped, on.stats.Skippable)
	}
	if off.stats.Skipped != 0 {
		t.Errorf("reuse off skipped %d firings", off.stats.Skipped)
	}
	if toggled.stats.Skipped == 0 || toggled.stats.Skipped >= toggled.stats.Skippable {
		t.Errorf("toggled run skipped %d of %d skippable firings; want strictly between",
			toggled.stats.Skipped, toggled.stats.Skippable)
	}
	if on.res1 == nil || len(on.res1) == 0 || len(on.res2) == 0 {
		t.Fatalf("empty results: %v / %v", on.res1, on.res2)
	}
}

// TestReuseSkipEqualsEmptyFiring pins the skip's work accounting against a
// real execution over an empty window, including the injected-slowdown hook:
// both paths must charge the identical fixed-only Work and leave the
// executor's cumulative accounting in the same state.
func TestReuseSkipEqualsEmptyFiring(t *testing.T) { overOptions(t, testReuseSkipEqualsEmptyFiring) }

func testReuseSkipEqualsEmptyFiring(t *testing.T) {
	sqls := map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}
	DebugSlowSubplan = func(id int) int64 { return 11 }
	defer func() { DebugSlowSubplan = nil }()

	runEmpty := func(reuse bool) (Work, *Report) {
		h := newHarness(t, sqls, []string{"q"})
		o := h.opts
		o.NoReuse = !reuse
		r, err := New(h.graph, DeltaDataset{}, o)
		if err != nil {
			t.Fatal(err)
		}
		// A seeded window so state exists, then an empty window: with reuse
		// on the empty window's firing is skipped, off it runs for real.
		r.StartWindow(DeltaDataset{"lineitem": InsertStream(Dataset{"x": lineitemRows([2]int64{1, 4})})["x"]})
		r.ArriveWindow(1, 1)
		r.RunSubplan(0)
		r.StartWindow(DeltaDataset{})
		r.ArriveWindow(1, 1)
		return r.RunSubplan(0), r.ReportNow()
	}
	skipW, skipRep := runEmpty(true)
	realW, realRep := runEmpty(false)
	if skipW != realW {
		t.Errorf("skip work %v != real empty-firing work %v", skipW, realW)
	}
	if !reflect.DeepEqual(skipRep, realRep) {
		t.Errorf("skip report %+v != real %+v", skipRep, realRep)
	}
	if want := (Work{Fixed: skipW.Fixed}); skipW != want {
		t.Errorf("skip charged non-fixed work: %v", skipW)
	}
}
