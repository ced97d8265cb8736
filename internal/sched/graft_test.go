package sched_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

// churnPlan is a deterministic two-revision scenario for scheduler grafts:
// the plan starts serving only query 0 and query 1 is admitted at a window
// boundary, with full-stream oracle expectations for both.
type churnPlan struct {
	gA, gB         *mqo.Graph
	pacesA, pacesB []int
	data           exec.DeltaDataset
	want           [][]string
}

// buildChurnPlan scans generator seeds from seed upward for a workload with
// at least two queries and builds both plan revisions.
func buildChurnPlan(t testing.TB, seed int64) *churnPlan {
	t.Helper()
	for ; ; seed++ {
		w := oracle.Generate(seed, oracle.DefaultOptions())
		if len(w.SQL) < 2 {
			continue
		}
		queries, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: bind: %v", seed, err)
		}
		build := func(qs []plan.Query) *mqo.Graph {
			sp, err := mqo.Build(qs)
			if err != nil {
				t.Fatalf("seed %d: build: %v", seed, err)
			}
			g, err := mqo.Extract(sp)
			if err != nil {
				t.Fatalf("seed %d: extract: %v", seed, err)
			}
			return g
		}
		r := rand.New(rand.NewSource(seed))
		cp := &churnPlan{
			gA:   build(queries[:1]),
			gB:   build(queries[:2]),
			data: exec.DeltaDataset(w.Streams),
		}
		cp.pacesA = randPaces(r, cp.gA, 4)
		cp.pacesB = randPaces(r, cp.gB, 4)
		tables := oracle.FinalTables(w.Streams)
		cp.want = make([][]string, 2)
		for q := 0; q < 2; q++ {
			cp.want[q] = oracle.Canon(oracle.Eval(queries[q].Root, tables, nil))
		}
		return cp
	}
}

// driveChurn runs W windows, grafting revision B in place of A at the
// boundary before window graftAt (no graft when graftAt < 0), and returns
// the scheduler after completion with the tracer that followed it on the
// run's clock.
func driveChurn(t testing.TB, cp *churnPlan, workers, windows, graftAt int, onWindow func(win int, s *sched.Scheduler)) (*sched.Scheduler, *trace.Tracer) {
	t.Helper()
	clock := sched.NewVirtualClock(time.Unix(0, 0))
	tr := trace.NewWithClock(clock.Now)
	s, err := sched.New(cp.gA, cp.pacesA, sched.Slices{Data: cp.data, N: windows}, sched.Config{
		Window:    time.Second,
		Windows:   windows,
		Clock:     clock,
		WorkRate:  50_000,
		Deadlines: make([]time.Duration, cp.gA.Plan.NumQueries()),
		Workers:   workers,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for win := 0; win < windows; win++ {
		if win == graftAt {
			deadlines := make([]time.Duration, cp.gB.Plan.NumQueries())
			if _, err := s.Graft(cp.gB, cp.pacesB, deadlines); err != nil {
				t.Fatalf("graft before window %d: %v", win, err)
			}
		}
		for len(s.Result().Windows) < win+1 {
			more, err := s.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
		}
		if onWindow != nil {
			onWindow(win, s)
		}
	}
	return s, tr
}

// TestGraftPriorWindowsInvariant: admitting a query between windows must not
// perturb anything already settled — the per-window stats of every prior
// window and the flushed metrics snapshot are byte-identical to a run that
// never grafts, and the graft itself changes neither.
func TestGraftPriorWindowsInvariant(t *testing.T) {
	cp := buildChurnPlan(t, 7)
	const windows, graftAt = 4, 2

	prefix := func(s *sched.Scheduler, n int) string {
		b, err := json.Marshal(s.Result().Windows[:n])
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	snapshot := func(s *sched.Scheduler) string {
		b, err := s.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var baseWindows, baseSnap string
	base, _ := driveChurn(t, cp, 1, windows, -1, func(win int, s *sched.Scheduler) {
		if win == graftAt-1 {
			baseWindows = prefix(s, graftAt)
			baseSnap = snapshot(s)
		}
	})
	if got := oracle.Canon(base.Results(0)); !eqStrings(got, cp.want[0]) {
		t.Fatalf("no-churn run query 0 = %v, want %v", got, cp.want[0])
	}

	var churnWindows, churnSnapBefore string
	churn, _ := driveChurn(t, cp, 1, windows, graftAt, func(win int, s *sched.Scheduler) {
		if win == graftAt-1 {
			churnWindows = prefix(s, graftAt)
			churnSnapBefore = snapshot(s)
		}
		if win == graftAt {
			// The graft ran before this window opened; everything flushed
			// by prior windows must read exactly as it did before it.
			if got := prefix(s, graftAt); got != churnWindows {
				t.Errorf("graft rewrote prior window stats:\n got %s\nwant %s", got, churnWindows)
			}
		}
	})

	if churnWindows != baseWindows {
		t.Errorf("prior windows diverge between churn and no-churn runs:\n churn %s\n base %s", churnWindows, baseWindows)
	}
	if churnSnapBefore != baseSnap {
		t.Errorf("metrics snapshot at graft boundary diverges from no-churn run:\n churn %s\n base %s", churnSnapBefore, baseSnap)
	}
	// The whole-run prefix is still untouched at the end.
	if got := prefix(churn, graftAt); got != baseWindows {
		t.Errorf("prior windows rewritten by post-graft execution:\n got %s\nwant %s", got, baseWindows)
	}
	// Both queries reach the oracle's full-stream results: the admitted one
	// was caught up over the pre-admission windows by the graft replay.
	for q := 0; q < 2; q++ {
		if got := oracle.Canon(churn.Results(q)); !eqStrings(got, cp.want[q]) {
			t.Errorf("churn run query %d = %v, want %v", q, got, cp.want[q])
		}
	}
}

// TestGraftWorkersInvariant: a churn run's schedule, work accounting,
// deadline bookkeeping, metrics and trace are byte-identical at any worker
// count.
func TestGraftWorkersInvariant(t *testing.T) {
	for _, seed := range []int64{3, 11, 19} {
		cp := buildChurnPlan(t, seed)
		render := func(workers int) string {
			s, tr := driveChurn(t, cp, workers, 3, 1, nil)
			res, err := json.MarshalIndent(s.Result(), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			var chrome strings.Builder
			if err := tr.WriteChrome(&chrome); err != nil {
				t.Fatal(err)
			}
			return string(res) + string(snap) + chrome.String()
		}
		if one, four := render(1), render(4); one != four {
			t.Errorf("seed %d: churn run differs between Workers=1 and Workers=4", seed)
		}
	}
}

// TestGraftPreconditions: grafting mid-window or after completion is
// rejected, as are malformed pace and deadline vectors.
func TestGraftPreconditions(t *testing.T) {
	cp := buildChurnPlan(t, 7)
	s, err := sched.New(cp.gA, cp.pacesA, sched.Slices{Data: cp.data, N: 2}, sched.Config{
		Window:    time.Second,
		Windows:   2,
		Clock:     sched.NewVirtualClock(time.Unix(0, 0)),
		WorkRate:  50_000,
		Deadlines: make([]time.Duration, cp.gA.Plan.NumQueries()),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadlinesB := make([]time.Duration, cp.gB.Plan.NumQueries())
	if _, err := s.Graft(cp.gB, make([]int, len(cp.gB.Subplans)), deadlinesB); err == nil {
		t.Error("graft accepted a zero pace")
	}
	if _, err := s.Graft(cp.gB, cp.pacesB, nil); err == nil {
		t.Error("graft accepted missing deadlines")
	}
	if more, err := s.Tick(); err != nil || !more {
		t.Fatalf("first tick: more=%v err=%v", more, err)
	}
	if len(s.Result().Windows) == 0 {
		// Mid-window (the first window is still open after one firing
		// group unless the plan is trivially small).
		if _, err := s.Graft(cp.gB, cp.pacesB, deadlinesB); err == nil {
			t.Error("graft accepted mid-window")
		}
	}
	for {
		more, err := s.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if _, err := s.Graft(cp.gB, cp.pacesB, deadlinesB); err == nil {
		t.Error("graft accepted after run completion")
	}
}

// TestGraftReplayPanicReturnsError: a panic while the runner replays a
// rebuilt subplan through the sealed windows returns from Graft as an error
// naming the subplan, instead of escaping the scheduler, and changes
// nothing: the run goes on under the old plan, a later graft succeeds, and
// the run's Result is byte-identical to that of a run without the attempt.
func TestGraftReplayPanicReturnsError(t *testing.T) {
	cp := buildChurnPlan(t, 7)
	defer func() { exec.DebugSlowSubplan = nil }()
	run := func(attempt bool) []byte {
		s, err := sched.New(cp.gA, cp.pacesA, sched.Slices{Data: cp.data, N: 4}, sched.Config{
			Window:    time.Second,
			Windows:   4,
			Clock:     sched.NewVirtualClock(time.Unix(0, 0)),
			WorkRate:  50_000,
			Deadlines: make([]time.Duration, cp.gA.Plan.NumQueries()),
		})
		if err != nil {
			t.Fatal(err)
		}
		tickTo := func(windows int) {
			for len(s.Result().Windows) < windows {
				if _, err := s.Tick(); err != nil {
					t.Fatal(err)
				}
			}
		}
		tickTo(1)
		if attempt {
			exec.DebugSlowSubplan = func(int) int64 { panic("injected replay failure") }
			_, err := s.Graft(cp.gB, cp.pacesB, make([]time.Duration, cp.gB.Plan.NumQueries()))
			exec.DebugSlowSubplan = nil
			if err == nil || !strings.Contains(err.Error(), "exec: graft: replay of window 0: exec: subplan ") ||
				!strings.HasSuffix(err.Error(), " panicked: injected replay failure") {
				t.Fatalf("Graft error %v, want the replay panic naming its subplan", err)
			}
		}
		tickTo(2)
		if _, err := s.Graft(cp.gB, cp.pacesB, make([]time.Duration, cp.gB.Plan.NumQueries())); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := run(true), run(false); string(got) != string(want) {
		t.Errorf("run after a failed graft:\n%s\nwithout the attempt:\n%s", got, want)
	}
}

// TestRunnerKeepsNoMirror: no caller reaches a scheduler's runner, so it
// keeps no Data mirror through its ticks and a graft; the results are the
// full stream's all the same.
func TestRunnerKeepsNoMirror(t *testing.T) {
	cp := buildChurnPlan(t, 7)
	s, _ := driveChurn(t, cp, 1, 4, 2, func(win int, s *sched.Scheduler) {
		if d := s.RunnerData(); d != nil {
			t.Errorf("window %d: the runner mirrors %d tables", win, len(d))
		}
	})
	for q := 0; q < 2; q++ {
		if got := oracle.Canon(s.Results(q)); !eqStrings(got, cp.want[q]) {
			t.Errorf("query %d = %v, want %v", q, got, cp.want[q])
		}
	}
}
