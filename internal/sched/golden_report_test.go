package sched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ishare/internal/cost"
	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/pace"
	"ishare/internal/profile"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

// observedRun is one scheduler run with every observation surface attached
// to the run's virtual clock.
type observedRun struct {
	s      *sched.Scheduler
	board  *sched.StatusBoard
	ev     *eventlog.Log
	tr     *trace.Tracer
	onOpen func(win int) // called between windows, before window win opens
}

// record drives the run to completion and renders everything the scheduler
// published: the metrics snapshot after every Tick (and after each onOpen),
// every Status the board received, then the Result JSON, the event JSONL and
// the Chrome trace.
func (r observedRun) record(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	snapshot := func(label string) {
		b, err := r.s.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s metrics %s\n", label, c.Bytes())
	}
	closed := 0
	for tick := 0; ; tick++ {
		more, err := r.s.Tick()
		if err != nil {
			t.Fatal(err)
		}
		snapshot(fmt.Sprintf("tick %d", tick))
		if n := len(r.s.Result().Windows); n > closed {
			closed = n
			st, ok := r.board.Current()
			if !ok {
				t.Fatalf("window %d closed without a status", n-1)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "window %d status %s\n", n-1, b)
			if more && r.onOpen != nil {
				r.onOpen(n)
				snapshot(fmt.Sprintf("before window %d", n))
			}
		}
		if !more {
			break
		}
	}
	res, err := json.MarshalIndent(r.s.Result(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString("result\n")
	buf.Write(res)
	buf.WriteString("\nevents\n")
	if err := r.ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trace\n")
	if err := r.tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// graftDegradeRun is the churn plan under deadlines tight enough that
// windows overload and degrade, with query 1 grafted in before window 2.
func graftDegradeRun(t *testing.T, cp *churnPlan, workers int) observedRun {
	const windows, graftAt = 5, 2
	tight := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = 100 * time.Microsecond
		}
		return ds
	}
	clock := sched.NewVirtualClock(time.Unix(0, 0))
	r := observedRun{
		board: &sched.StatusBoard{},
		ev:    eventlog.New(nil, 0),
		tr:    trace.NewWithClock(clock.Now),
	}
	s, err := sched.New(cp.gA, cp.pacesA, sched.Slices{Data: cp.data, N: windows}, sched.Config{
		Window:    time.Second,
		Windows:   windows,
		Clock:     clock,
		WorkRate:  50_000,
		Deadlines: tight(cp.gA.Plan.NumQueries()),
		Workers:   workers,
		Tracer:    r.tr,
		TraceName: "graft",
		Profile:   profile.New(profile.Config{Subplans: len(cp.gA.Subplans)}),
		Events:    r.ev,
		Status:    r.board,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	r.onOpen = func(win int) {
		if win != graftAt {
			return
		}
		if _, err := s.Graft(cp.gB, cp.pacesB, tight(cp.gB.Plan.NumQueries())); err != nil {
			t.Fatalf("graft before window %d: %v", win, err)
		}
	}
	return r
}

// recalibrateRun is TestRecalibrationRecoversDrift's closed loop: an
// injected slowdown on one subplan, degradation off, drift alerts that
// persist into a recalibration and a warm re-search.
func recalibrateRun(t *testing.T, tp *testPlan, base []float64, workers int) observedRun {
	nq := tp.graph.Plan.NumQueries()
	constraints := make([]float64, nq)
	for i := range constraints {
		constraints[i] = 1e12
	}
	model := cost.NewModel(tp.graph)
	opt, err := pace.NewOptimizer(model, constraints, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := opt.Greedy(); err != nil {
		t.Fatal(err)
	}
	paces := make([]int, len(tp.graph.Subplans))
	for i := range paces {
		paces[i] = 8
	}
	deadlines := make([]time.Duration, nq)
	for i := range deadlines {
		deadlines[i] = 500 * time.Millisecond
	}
	clock := sched.NewVirtualClock(time.Unix(0, 0))
	r := observedRun{
		board: &sched.StatusBoard{},
		ev:    eventlog.New(nil, 0),
		tr:    trace.NewWithClock(clock.Now),
	}
	r.s, err = sched.New(tp.graph, paces, sched.Replay{Data: tp.data}, sched.Config{
		Window:             time.Second,
		Windows:            6,
		Clock:              clock,
		WorkRate:           100_000,
		Deadlines:          deadlines,
		Workers:            workers,
		DisableDegradation: true,
		Tracer:             r.tr,
		TraceName:          "recalibrate",
		Profile:            profile.New(profile.Config{Subplans: len(tp.graph.Subplans), Modeled: base, Bound: 3}),
		Events:             r.ev,
		Status:             r.board,
		Recalibrate: &sched.RecalibratePolicy{
			Model: model, Constraints: constraints, MaxPace: 8, Persistence: 2, BaselineScale: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenObservations pins every byte the scheduler publishes — metrics
// after each Tick, each Status, the Result, the event log and the Chrome
// trace — over two virtual-clock runs the older goldens do not reach: one
// that degrades overloaded windows around a mid-run Graft, and one that
// recalibrates. Each must be identical at Workers 1 and 4 and match its file
// under testdata/. Regenerate with:
//
//	go test ./internal/sched -run TestGoldenObservations -update
func TestGoldenObservations(t *testing.T) {
	check := func(t *testing.T, name string, run func(workers int) observedRun) {
		one := run(1).record(t)
		if four := run(4).record(t); !bytes.Equal(one, four) {
			t.Fatalf("observations differ between Workers=1 and Workers=4 (%d vs %d bytes)", len(one), len(four))
		}
		golden := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(golden, one, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", golden, len(one))
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(one, want) {
			t.Errorf("observations diverged from %s (regenerate with -update if the change is intended)\ngot %d bytes, want %d",
				golden, len(one), len(want))
		}
	}

	t.Run("graft_degrade", func(t *testing.T) {
		cp := buildChurnPlan(t, 3)
		check(t, "golden_graft_degrade.txt", func(workers int) observedRun {
			return graftDegradeRun(t, cp, workers)
		})
	})

	t.Run("recalibrate", func(t *testing.T) {
		tp := buildPlan(t, 11)
		calib := make([]int, len(tp.graph.Subplans))
		for i := range calib {
			calib[i] = 8
		}
		matrix := calibrate(t, tp, calib, 1)
		base := make([]float64, len(tp.graph.Subplans))
		for i := range base {
			base[i] = matrix[[2]int{0, i}]
		}
		slowID := len(tp.graph.Subplans) - 1
		exec.DebugSlowSubplan = func(id int) int64 {
			if id == slowID {
				return 20_000
			}
			return 0
		}
		defer func() { exec.DebugSlowSubplan = nil }()
		check(t, "golden_recalibrate.txt", func(workers int) observedRun {
			return recalibrateRun(t, tp, base, workers)
		})
	})
}
