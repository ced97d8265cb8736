package sched_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/oracle"
	"ishare/internal/profile"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

// obsOpts selects the observability sinks for one runObserved call.
type obsOpts struct {
	prof   *profile.Profiler
	ev     *eventlog.Log
	status *sched.StatusBoard
	// clock is the run's virtual clock (nil: a fresh one at the Unix
	// epoch); tracer, when set, must read it, and traces under the same
	// process name runTraced uses.
	clock     *sched.VirtualClock
	tracer    *trace.Tracer
	workers   int
	noDegrade bool
}

// runObserved drives one full virtual-clock scheduler run with the given
// observability sinks attached and returns the run's result JSON and
// metrics snapshot — the same byte form runTraced returns beside its
// Chrome trace.
func runObserved(t testing.TB, tp *testPlan, paces []int, windows int, o obsOpts) (*sched.Scheduler, []byte) {
	t.Helper()
	deadlines := make([]time.Duration, tp.graph.Plan.NumQueries())
	for i := range deadlines {
		deadlines[i] = 100 * time.Millisecond
	}
	clock := o.clock
	if clock == nil {
		clock = sched.NewVirtualClock(time.Unix(0, 0))
	}
	s, err := sched.New(tp.graph, paces, sched.Slices{Data: tp.data, N: windows}, sched.Config{
		Window:             time.Second,
		Windows:            windows,
		Clock:              clock,
		WorkRate:           50_000,
		Deadlines:          deadlines,
		Workers:            o.workers,
		DisableDegradation: o.noDegrade,
		Profile:            o.prof,
		Events:             o.ev,
		Status:             o.status,
		Tracer:             o.tracer,
		TraceName:          "golden",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	snapJSON, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return s, append(append(resJSON, '\n'), snapJSON...)
}

// driftAlerts reads back the drift alerts a run published as drift.alert
// events.
func driftAlerts(ev *eventlog.Log) []profile.Alert {
	var out []profile.Alert
	for _, e := range ev.Events() {
		if e.Type == "drift.alert" {
			out = append(out, profile.Alert{
				Window: e.Window, Subplan: e.Subplan, Drift: e.Attrs["drift"].(float64),
				Modeled: e.Attrs["modeled"].(float64), Work: e.Attrs["work"].(int64),
			})
		}
	}
	return out
}

// calibrate runs the plan once with a bare profiler (no baseline, so no
// alerts) and returns the observed per-window per-subplan work matrix — the
// measured baseline a verification run's ModeledAt serves back.
func calibrate(t testing.TB, tp *testPlan, paces []int, windows int) map[[2]int]float64 {
	t.Helper()
	prof := profile.New(profile.Config{Subplans: len(tp.graph.Subplans)})
	runObserved(t, tp, paces, windows, obsOpts{prof: prof, workers: 1, noDegrade: true})
	matrix := make(map[[2]int]float64)
	for _, s := range prof.Samples() {
		matrix[[2]int{s.Window, s.Subplan}] = float64(s.Work)
	}
	return matrix
}

// TestDriftDetectorFiresOnSlowSubplan is the closed-loop acceptance
// scenario: a calibration run measures each subplan's per-window work, a
// verification run against that baseline stays silent even at a tight
// bound, and the same run with exec.DebugSlowSubplan inflating one subplan
// raises its first drift alert within two windows — on the virtual clock,
// deterministic at any worker count.
func TestDriftDetectorFiresOnSlowSubplan(t *testing.T) {
	tp := buildPlan(t, 11)
	paces := randPaces(rand.New(rand.NewSource(11)), tp.graph, 6)
	const windows = 4
	const slowID = 0

	matrix := calibrate(t, tp, paces, windows)
	modeledAt := func(window, subplan int) float64 {
		return matrix[[2]int{window, subplan}]
	}

	for _, workers := range []int{1, 4} {
		// Calibrated: every window's ratio is exactly 1.0, so even a 5%
		// band never trips.
		calm := profile.New(profile.Config{
			Subplans: len(tp.graph.Subplans), ModeledAt: modeledAt, Bound: 1.05,
		})
		calmEv := eventlog.New(nil, 0)
		runObserved(t, tp, paces, windows, obsOpts{prof: calm, ev: calmEv, workers: workers, noDegrade: true})
		if alerts := driftAlerts(calmEv); len(alerts) != 0 {
			t.Fatalf("workers=%d: calibrated run alerted: %+v", workers, alerts)
		}
		for sub, d := range calm.Drifts() {
			if d != 0 && (d < 0.999 || d > 1.001) {
				t.Errorf("workers=%d: calibrated drift[%d] = %v, want 1", workers, sub, d)
			}
		}

		// Faulted: the injected fixed cost inflates slowID's observed work
		// from window 0 on.
		exec.DebugSlowSubplan = func(id int) int64 {
			if id == slowID {
				return 5_000
			}
			return 0
		}
		hot := profile.New(profile.Config{
			Subplans: len(tp.graph.Subplans), ModeledAt: modeledAt, Bound: 1.05,
		})
		ev := eventlog.New(nil, 0)
		runObserved(t, tp, paces, windows, obsOpts{prof: hot, ev: ev, workers: workers, noDegrade: true})
		exec.DebugSlowSubplan = nil

		alerts := driftAlerts(ev)
		if len(alerts) == 0 {
			t.Fatalf("workers=%d: injected slowdown raised no drift alerts", workers)
		}
		first := alerts[0]
		if first.Subplan != slowID {
			t.Errorf("workers=%d: first alert names subplan %d, want %d", workers, first.Subplan, slowID)
		}
		if first.Window > 1 {
			t.Errorf("workers=%d: detector took until window %d, want within 2 windows", workers, first.Window)
		}
		for _, a := range alerts {
			if a.Subplan != slowID {
				t.Errorf("workers=%d: spurious alert for healthy subplan %d: %+v", workers, a.Subplan, a)
			}
		}
		if d := hot.Drift(slowID); d <= 1.05 {
			t.Errorf("workers=%d: slow subplan drift EWMA = %v, want above the bound", workers, d)
		}

		// Every window sample whose drift left the band reached the event
		// log as an alert, alongside the window closes.
		outOfBand, closes := 0, 0
		for _, s := range hot.Samples() {
			if s.Modeled > 0 && (s.Drift > 1.05 || s.Drift < 1/1.05) {
				outOfBand++
			}
		}
		for _, e := range ev.Events() {
			if e.Type == "window.close" {
				closes++
			}
		}
		if outOfBand != len(alerts) {
			t.Errorf("workers=%d: %d drift events for %d out-of-band samples", workers, len(alerts), outOfBand)
		}
		if closes != windows {
			t.Errorf("workers=%d: %d window.close events for %d windows", workers, closes, windows)
		}
	}
}

// TestDriftSilentOverCalibratedRuns sweeps 100 oracle-seeded workload ×
// pace-vector combinations: a run whose baseline is its own calibration
// must never alert, even at a 5% drift band, and its results must match the
// oracle. This is the detector's false-positive budget: zero.
func TestDriftSilentOverCalibratedRuns(t *testing.T) {
	const (
		seeds    = 25
		draws    = 4
		windows  = 2
		tightest = 1.05
	)
	runs := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tp := buildPlan(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for draw := 0; draw < draws; draw++ {
			paces := randPaces(rng, tp.graph, 6)
			matrix := calibrate(t, tp, paces, windows)
			prof := profile.New(profile.Config{
				Subplans: len(tp.graph.Subplans),
				ModeledAt: func(window, subplan int) float64 {
					return matrix[[2]int{window, subplan}]
				},
				Bound: tightest,
			})
			ev := eventlog.New(nil, 0)
			s, _ := runObserved(t, tp, paces, windows, obsOpts{prof: prof, ev: ev, workers: 1, noDegrade: true})
			if alerts := driftAlerts(ev); len(alerts) != 0 {
				t.Fatalf("seed %d draw %d: calibrated run alerted: %+v", seed, draw, alerts)
			}
			if draw == 0 {
				for q, want := range tp.want {
					if got := oracle.Canon(s.Results(q)); !eqStrings(got, want) {
						t.Errorf("seed %d: query %d results = %v, want %v", seed, q, got, want)
					}
				}
			}
			runs++
		}
	}
	if runs < 100 {
		t.Fatalf("only %d calibrated runs, want >= 100", runs)
	}
}

// TestGoldenEventLog pins the structured event log for one seeded workload
// on the virtual clock: byte-identical JSONL at Workers=1 and Workers=4
// (events are emitted only from the canonical accounting path), matching
// the checked-in golden file. The run's baseline is half its calibration,
// so drift alerts fire deterministically alongside the window closes.
// Regenerate with:
//
//	go test ./internal/sched -run TestGoldenEventLog -update
func TestGoldenEventLog(t *testing.T) {
	tp := buildPlan(t, 7)
	paces := randPaces(rand.New(rand.NewSource(7)), tp.graph, 6)
	const windows = 3

	matrix := calibrate(t, tp, paces, windows)
	half := func(window, subplan int) float64 {
		return matrix[[2]int{window, subplan}] / 2
	}

	render := func(workers int) []byte {
		prof := profile.New(profile.Config{
			Subplans: len(tp.graph.Subplans), ModeledAt: half, Bound: 1.5,
		})
		ev := eventlog.New(nil, 0)
		runObserved(t, tp, paces, windows, obsOpts{prof: prof, ev: ev, workers: workers, noDegrade: true})
		var buf bytes.Buffer
		if err := ev.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	one := render(1)
	four := render(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("event log differs across worker counts:\nworkers=1:\n%s\n--- vs workers=4 ---\n%s", one, four)
	}

	golden := filepath.Join("testdata", "golden_events.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("event log diverged from golden file %s (regenerate with -update if the change is intended)\ngot %d bytes, want %d", golden, len(one), len(want))
	}

	// The golden log must validate against the schema, with every window
	// closed and the deliberately mis-calibrated baseline alerting.
	n, byType, err := eventlog.Validate(bytes.NewReader(one))
	if err != nil {
		t.Fatalf("golden event log fails validation: %v", err)
	}
	if n == 0 || byType["window.close"] != windows {
		t.Errorf("golden log: %d events, %v", n, byType)
	}
	if byType["drift.alert"] == 0 {
		t.Error("golden log has no drift alerts despite the halved baseline")
	}
}

// TestObservabilityZeroCostWhenDisabled pins the nil-sink discipline for
// the two surfaces the scheduler calls without a nil check of its own: a nil
// profiler (observed on every firing) and a nil event log must do nothing
// and allocate nothing. It exercises the receivers only, not a run.
func TestObservabilityZeroCostWhenDisabled(t *testing.T) {
	var prof *profile.Profiler
	var ev *eventlog.Log
	if allocs := testing.AllocsPerRun(200, func() {
		prof.Observe(3, 100, 50, 2)
		prof.FlushWindow(1)
		_ = prof.Drift(3)
		ev.Emit("window.close", 1, 0, -1, -1, nil)
	}); allocs != 0 {
		t.Errorf("disabled observability allocates %v per run, want 0", allocs)
	}
}
