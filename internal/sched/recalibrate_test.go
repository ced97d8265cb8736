package sched_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ishare/internal/cost"
	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/pace"
	"ishare/internal/profile"
	"ishare/internal/sched"
)

// recalScheduler builds one closed-loop run: an eager all-8 pace vector,
// degradation disabled, 500 ms deadlines, and a RecalibratePolicy whose
// model's memo was warmed by the original pace search. The profiler's
// per-window baseline is base.
func recalScheduler(t *testing.T, tp *testPlan, base []float64, windows, workers int, ev *eventlog.Log, status *sched.StatusBoard) (*sched.Scheduler, *profile.Profiler, *sched.RecalibratePolicy) {
	t.Helper()
	nq := tp.graph.Plan.NumQueries()
	constraints := make([]float64, nq)
	for i := range constraints {
		constraints[i] = 1e12 // generous: the corrected search settles at batch
	}
	model := cost.NewModel(tp.graph)
	opt, err := pace.NewOptimizer(model, constraints, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := opt.Greedy(); err != nil { // warm the memo the policy adopts from
		t.Fatal(err)
	}

	paces := make([]int, len(tp.graph.Subplans))
	for i := range paces {
		paces[i] = 8
	}
	prof := profile.New(profile.Config{
		Subplans: len(tp.graph.Subplans),
		Modeled:  base,
		Bound:    3,
	})
	policy := &sched.RecalibratePolicy{
		Model:         model,
		Constraints:   constraints,
		MaxPace:       8,
		Persistence:   2,
		BaselineScale: 1, // Replay feeds the full stream every window
	}
	s, err := sched.New(tp.graph, paces, sched.Replay{Data: tp.data}, sched.Config{
		Window:             time.Second,
		Windows:            windows,
		Clock:              sched.NewVirtualClock(time.Unix(0, 0)),
		WorkRate:           100_000,
		Deadlines:          recalDeadlines(nq),
		Workers:            workers,
		DisableDegradation: true,
		Profile:            prof,
		Events:             ev,
		Status:             status,
		Recalibrate:        policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, prof, policy
}

func recalDeadlines(nq int) []time.Duration {
	deadlines := make([]time.Duration, nq)
	for i := range deadlines {
		deadlines[i] = 500 * time.Millisecond
	}
	return deadlines
}

// recalBaseline is a clean calibration pass at all-8 paces: per-subplan
// window-0 work is the profiler's per-window baseline (Replay replays the
// same deltas every window).
func recalBaseline(t *testing.T, tp *testPlan) []float64 {
	t.Helper()
	paces := make([]int, len(tp.graph.Subplans))
	for i := range paces {
		paces[i] = 8
	}
	matrix := calibrate(t, tp, paces, 1)
	base := make([]float64, len(tp.graph.Subplans))
	for i := range base {
		base[i] = matrix[[2]int{0, i}]
	}
	return base
}

// recalRun drives one closed-loop run (recalScheduler) to completion.
// Returns the run's determinism bytes (result JSON + event JSONL) alongside
// the pieces the assertions need.
func recalRun(t *testing.T, tp *testPlan, base []float64, windows, workers int) (*sched.Result, []eventlog.Event, sched.Status, []byte) {
	t.Helper()
	ev := eventlog.New(nil, 0)
	status := &sched.StatusBoard{}
	s, _, _ := recalScheduler(t, tp, base, windows, workers, ev, status)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var evBuf bytes.Buffer
	if err := ev.WriteJSONL(&evBuf); err != nil {
		t.Fatal(err)
	}
	st, ok := status.Current()
	if !ok {
		t.Fatal("no status published")
	}
	return res, ev.Events(), st, append(append(resJSON, '\n'), evBuf.Bytes()...)
}

// TestRecalibrationRecoversDrift is the closed-loop acceptance scenario: an
// injected slowdown (exec.DebugSlowSubplan) makes one subplan run far above
// its modeled baseline, so an eager all-8 pace vector misses every deadline.
// With degradation disabled, recovery can only come from the closed loop:
// drift alerts persist for Persistence windows, the scheduler folds the
// observed drift into the cost model, re-searches the paces warm-started
// from the live memo, and swaps the corrected (batch) vector in — after
// which deadlines are met again. The whole sequence is visible in the
// Result, the event log and the status snapshot, and reproduces
// byte-identically across runs and worker counts on the virtual clock.
func TestRecalibrationRecoversDrift(t *testing.T) {
	tp := buildPlan(t, 11)
	const (
		penalty = 20_000 // +0.2s of modeled time per execution of slowID
		windows = 8
	)
	// Slow a top subplan (ids are children-first, so the last id is some
	// query's root): leaf cones stay undrifted, which is what makes their
	// memo entries adoptable across the recalibration.
	slowID := len(tp.graph.Subplans) - 1

	base := recalBaseline(t, tp)

	exec.DebugSlowSubplan = func(id int) int64 {
		if id == slowID {
			return penalty
		}
		return 0
	}
	defer func() { exec.DebugSlowSubplan = nil }()

	var first []byte
	for _, workers := range []int{1, 4} {
		res, events, st, got := recalRun(t, tp, base, windows, workers)
		if first == nil {
			first = got

			if res.Windows[0].Missed == 0 {
				t.Errorf("window 0 should miss deadlines under the injected slowdown: %+v", res.Windows[0])
			}
			if len(res.Recalibrations) == 0 {
				t.Fatal("no recalibration fired")
			}
			rec := res.Recalibrations[0]
			// Persistence=2 with alerts from window 0 on: trigger at window 1.
			if rec.Window != 1 {
				t.Errorf("recalibration fired at window %d, want 1 (K=2, alerts from window 0)", rec.Window)
			}
			found := false
			for _, id := range rec.Subplans {
				if id == slowID {
					found = true
				}
			}
			if !found {
				t.Errorf("recalibration subplans %v do not include the injected-slow subplan %d", rec.Subplans, slowID)
			}
			if rec.NewPaces[slowID] >= rec.OldPaces[slowID] {
				t.Errorf("corrected search did not coarsen the slow subplan: %v -> %v", rec.OldPaces, rec.NewPaces)
			}
			if rec.Adopted == 0 {
				t.Error("warm re-search adopted no memo entries (undrifted subplans should carry over)")
			}
			if res.FinalPaces[slowID] >= 8 {
				t.Errorf("final paces never coarsened: %v", res.FinalPaces)
			}
			last := res.Windows[len(res.Windows)-1]
			if last.Missed != 0 {
				t.Errorf("recalibration did not recover the deadline misses: last window %+v", last)
			}
			if len(res.Decisions) != 0 {
				t.Errorf("degradation decisions recorded despite DisableDegradation: %+v", res.Decisions)
			}

			// Audit trail: one cost.recalibrate per drifting subplan per
			// recalibration, one pace.research per recalibration.
			wantRecal := 0
			recWindows := map[int]bool{}
			for _, r := range res.Recalibrations {
				wantRecal += len(r.Subplans)
				recWindows[r.Window] = true
			}
			var recal, research int
			for _, e := range events {
				switch e.Type {
				case "cost.recalibrate":
					recal++
					if !recWindows[e.Window] {
						t.Errorf("cost.recalibrate event in window %d, not a trigger window", e.Window)
					}
				case "pace.research":
					research++
					if e.Attrs["adopted"] == nil || e.Attrs["new_paces"] == nil {
						t.Errorf("pace.research event missing attrs: %+v", e)
					}
				}
			}
			if recal != wantRecal || research != len(res.Recalibrations) {
				t.Errorf("event log has %d cost.recalibrate / %d pace.research events, want %d / %d",
					recal, research, wantRecal, len(res.Recalibrations))
			}

			// The status snapshot surfaces the loop.
			if st.Recalibrations != len(res.Recalibrations) || st.LastRecalibration != res.Recalibrations[len(res.Recalibrations)-1].Window {
				t.Errorf("status reports %d recalibrations (last %d), result has %d (last %d)",
					st.Recalibrations, st.LastRecalibration,
					len(res.Recalibrations), res.Recalibrations[len(res.Recalibrations)-1].Window)
			}
			continue
		}
		if !bytes.Equal(first, got) {
			t.Errorf("workers=%d diverged from workers=1:\n%s\n--- vs ---\n%s", workers, got, first)
		}
	}

	// Run-to-run determinism at workers=1.
	if _, _, _, again := recalRun(t, tp, base, windows, 1); !bytes.Equal(first, again) {
		t.Error("recalibration run is not deterministic")
	}
}

// TestRecalibrationAfterGraft: a graft keeps the scheduler's model, so the
// next recalibration folds its drift into the factors learned before the
// graft and re-plans warm across the revision, adopting memo entries of the
// subplans the revision kept. The policy passed to New is never written.
func TestRecalibrationAfterGraft(t *testing.T) {
	tp := buildPlan(t, 11)
	slowID := len(tp.graph.Subplans) - 1
	base := recalBaseline(t, tp)
	const penalty = 1_000 // drifts the slow subplan below the factor clamp after the graft
	exec.DebugSlowSubplan = func(id int) int64 {
		if id == slowID {
			return penalty
		}
		return 0
	}
	defer func() { exec.DebugSlowSubplan = nil }()

	const windows = 8
	s, prof, policy := recalScheduler(t, tp, base, windows, 1, nil, nil)
	given, model, sims := *policy, policy.Model, policy.Model.Sims
	untilRecalibrations := func(n int) {
		t.Helper()
		for len(s.Result().Recalibrations) < n {
			more, err := s.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				t.Fatalf("run ended after %d recalibrations, want %d", len(s.Result().Recalibrations), n)
			}
		}
	}
	untilRecalibrations(1)
	learned := s.Calibration()

	// Graft a rebuild of the same query set (every subplan kept) and give
	// the profiler its baseline back: the slowdown persists, so drift alerts
	// fire again.
	g := rebuild(t, 11)
	if _, err := s.Graft(g, s.Paces(), recalDeadlines(g.Plan.NumQueries())); err != nil {
		t.Fatal(err)
	}
	prof.SetModeled(base)
	untilRecalibrations(2)

	rec := s.Result().Recalibrations[1]
	drifts := make([]float64, len(g.Subplans))
	for i, id := range rec.Subplans {
		drifts[id] = rec.Drifts[i]
	}
	want, err := cost.CalibrateFromProfile(g, learned, drifts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cost.CalibrateFromProfile(g, nil, drifts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, cold) {
		t.Fatalf("the scenario cannot tell kept factors %v from factors restarted at 1", learned)
	}
	if got := s.Calibration(); !reflect.DeepEqual(got, want) {
		t.Errorf("factors after the graft's recalibration\n %v\nwant the drift folded into the factors learned before it\n %v", got, want)
	}
	if rec.Adopted == 0 {
		t.Error("the recalibration after the graft adopted no memo entries")
	}

	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if policy.Model != model || model.Sims != sims || !reflect.DeepEqual(*policy, given) {
		t.Error("the scheduler wrote the RecalibratePolicy passed to New")
	}
}

// rebuild binds and plans oracle workload seed again: a graph equal to
// buildPlan's, with its own operators.
func rebuild(t *testing.T, seed int64) *mqo.Graph {
	t.Helper()
	queries, err := oracle.Generate(seed, oracle.DefaultOptions()).Bind()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mqo.Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
