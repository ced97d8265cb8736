package exec

import (
	"reflect"
	"testing"
)

// TestWindowedRunMatchesSingleRun drives the scheduler-facing window API by
// hand — two trigger windows, each arriving in halves — and checks the
// trigger-point results equal a plain single-window Run over the
// concatenated stream.
func TestWindowedRunMatchesSingleRun(t *testing.T) { overOptions(t, testWindowedRunMatchesSingleRun) }

func testWindowedRunMatchesSingleRun(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	rows := lineitemRows(
		[2]int64{1, 10}, [2]int64{2, 20}, [2]int64{1, 5}, [2]int64{3, 7},
		[2]int64{2, 2}, [2]int64{3, 3}, [2]int64{1, 1}, [2]int64{2, 9},
	)
	full := Dataset{"lineitem": rows}

	_, want := func() (*Runner, []string) {
		r, err := New(h.graph, InsertStream(full), h.opts)
		if err != nil {
			t.Fatal(err)
		}
		paces := make([]int, len(h.graph.Subplans))
		for i := range paces {
			paces[i] = 4
		}
		if _, err := r.Run(paces); err != nil {
			t.Fatal(err)
		}
		return r, r.SortedResults(0)
	}()

	// Windowed: same stream split across two windows, each arriving in two
	// halves with every subplan fired at each half (pace 2 per window).
	wr, err := New(h.graph, DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	deltas := InsertStream(full)["lineitem"]
	for w := 0; w < 2; w++ {
		wr.StartWindow(DeltaDataset{"lineitem": deltas[w*4 : (w+1)*4]})
		for j := 1; j <= 2; j++ {
			wr.ArriveWindow(j, 2)
			for id := range h.graph.Subplans {
				if work := wr.RunSubplan(id); work.Total() <= 0 && j == 2 {
					t.Errorf("window %d firing %d subplan %d reported no work", w, j, id)
				}
			}
		}
	}
	got := wr.SortedResults(0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windowed results = %v, want %v", got, want)
	}
}

func TestArriveWindowFractions(t *testing.T) { overOptions(t, testArriveWindowFractions) }

func testArriveWindowFractions(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey FROM lineitem",
	}, []string{"q"})
	r, err := New(h.graph, DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	log, err := r.TableLog("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	stream := InsertStream(Dataset{"lineitem": lineitemRows(
		[2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 3}, [2]int64{4, 4},
	)})["lineitem"]

	r.StartWindow(DeltaDataset{"lineitem": stream[:2]})
	r.ArriveWindow(1, 2)
	if log.Len() != 1 {
		t.Errorf("after 1/2 of window 0: log has %d rows, want 1", log.Len())
	}
	r.ArriveWindow(2, 2)
	if log.Len() != 2 {
		t.Errorf("after window 0: log has %d rows, want 2", log.Len())
	}
	// The next window's fractions are measured over its own arrivals.
	r.StartWindow(DeltaDataset{"lineitem": stream[2:]})
	if log.Len() != 2 {
		t.Errorf("StartWindow arrived data early: %d rows", log.Len())
	}
	r.ArriveWindow(1, 2)
	if log.Len() != 3 {
		t.Errorf("after 1/2 of window 1: log has %d rows, want 3", log.Len())
	}
	r.ArriveWindow(2, 2)
	if log.Len() != 4 {
		t.Errorf("after window 1: log has %d rows, want 4", log.Len())
	}
}

func TestDebugSlowSubplanChargesFixedWork(t *testing.T) {
	overOptions(t, testDebugSlowSubplanChargesFixedWork)
}

func testDebugSlowSubplanChargesFixedWork(t *testing.T) {
	build := func() *Runner {
		h := newHarness(t, map[string]string{
			"q": "SELECT p_brand FROM part WHERE p_size > 10",
		}, []string{"q"})
		r, err := New(h.graph, InsertStream(Dataset{"part": partRows([3]interface{}{1, "A", 15})}), h.opts)
		if err != nil {
			t.Fatal(err)
		}
		r.ArriveWindow(1, 1)
		return r
	}

	base := build().RunSubplan(0)

	const penalty = 12345
	DebugSlowSubplan = func(id int) int64 {
		if id == 0 {
			return penalty
		}
		return 0
	}
	defer func() { DebugSlowSubplan = nil }()
	slow := build().RunSubplan(0)

	if got := slow.Fixed - base.Fixed; got != penalty {
		t.Errorf("penalty charged = %d, want %d", got, penalty)
	}
	if slow.Total()-base.Total() != penalty {
		t.Errorf("penalty leaked into other work classes: base %v slow %v", base, slow)
	}
}

// TestDataMirrorFollowsItsOwner pins the two contracts of Runner.Data: a
// runner from New mirrors every window's arrivals in arrival order (what
// the benchmark reads); one whose owner set Data to nil keeps it nil
// through windows and grafts, with the same results and work.
func TestDataMirrorFollowsItsOwner(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	stream := InsertStream(Dataset{"lineitem": lineitemRows(
		[2]int64{1, 10}, [2]int64{2, 20}, [2]int64{1, 5}, [2]int64{3, 7}, [2]int64{2, 2}, [2]int64{3, 3},
	)})["lineitem"]
	run := func(mirror bool) *Runner {
		r, err := New(h.graph, DeltaDataset{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !mirror {
			r.Data = nil
		}
		for w := 0; w < 3; w++ {
			if w == 2 {
				if _, err := r.Graft(h.graph, GraftOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			r.StartWindow(DeltaDataset{"lineitem": stream[2*w : 2*w+2]})
			r.ArriveWindow(1, 1)
			for id := range h.graph.Subplans {
				r.RunSubplan(id)
			}
			if mirror && !reflect.DeepEqual(r.Data["lineitem"], stream[:2*w+2]) {
				t.Errorf("window %d: mirror holds %v, want %v", w, r.Data["lineitem"], stream[:2*w+2])
			}
			if !mirror && r.Data != nil {
				t.Errorf("window %d: an unmirrored runner holds %d tables", w, len(r.Data))
			}
		}
		return r
	}
	mirrored, bare := run(true), run(false)
	if got, want := bare.SortedResults(0), mirrored.SortedResults(0); !reflect.DeepEqual(got, want) {
		t.Errorf("results without the mirror = %v, want %v", got, want)
	}
	if got, want := bare.ReportNow().TotalWork, mirrored.ReportNow().TotalWork; got != want {
		t.Errorf("work without the mirror = %d, want %d", got, want)
	}
}
