package oracle_test

import (
	"fmt"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/oracle"
	"ishare/internal/plan"
)

// failingFor builds the shrinker predicate: a workload "fails" when the
// harness reports any mismatch. Harness errors (unbindable SQL after a
// shrink step) count as not-failing so the shrinker backs off.
func failingFor(opts oracle.CheckOptions) func(*oracle.Workload) bool {
	return func(w *oracle.Workload) bool {
		m, err := oracle.Check(w, opts)
		return err == nil && m != nil
	}
}

// reportMismatch shrinks the workload and fails the test with a runnable
// reproducer.
func reportMismatch(t *testing.T, w *oracle.Workload, m *oracle.Mismatch, opts oracle.CheckOptions) {
	t.Helper()
	shrunk := oracle.Shrink(w, failingFor(opts))
	sm, err := oracle.Check(shrunk, opts)
	if err != nil || sm == nil {
		// Shrinking lost the failure (should not happen); report the
		// original.
		t.Fatalf("seed %d: engine diverges from oracle: %v\nreproduce with:\n%s",
			w.Seed, m, oracle.ReproGo(w))
	}
	t.Fatalf("seed %d: engine diverges from oracle: %v\nshrunk to %d queries / %d deltas; reproduce with:\n%s",
		w.Seed, sm, len(shrunk.SQL), shrunk.Deltas(), oracle.ReproGo(shrunk))
}

// TestDifferential is the main generative differential test: each seeded
// workload is executed by the shared engine under batch, ≥3 random pace
// vectors, Workers 1 and 4, and three decomposed builds, and every
// configuration's trigger-point results must equal the naive oracle's.
func TestDifferential(t *testing.T) {
	workloads := 220
	if !testing.Short() {
		workloads = 600
	}
	opts := oracle.DefaultCheckOptions()
	for seed := int64(0); seed < int64(workloads); seed++ {
		w := oracle.Generate(seed, oracle.DefaultOptions())
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v\nSQL: %v", seed, err, w.SQL)
		}
		if m != nil {
			reportMismatch(t, w, m, opts)
		}
	}
}

// TestDifferentialDeepJoins runs the main differential pass over workloads
// that carry a deep-join family: a join feeding a join, a join under a
// projection, one table on both sides of a self-join. The generator must
// keep producing each shape, or the pass would silently stop covering it.
func TestDifferentialDeepJoins(t *testing.T) {
	workloads := 60
	if !testing.Short() {
		workloads = 200
	}
	genOpts := oracle.DefaultOptions()
	genOpts.DeepJoins = true
	opts := oracle.DefaultCheckOptions()
	var joinOverJoin, joinUnderProject, selfJoin int
	for seed := int64(0); seed < int64(workloads); seed++ {
		w := oracle.Generate(seed, genOpts)
		queries, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch x := n.(type) {
			case *plan.Join:
				_, l := x.Left.(*plan.Join)
				_, r := x.Right.(*plan.Join)
				if l || r {
					joinOverJoin++
				}
				ls, lok := x.Left.(*plan.Scan)
				rs, rok := x.Right.(*plan.Scan)
				if lok && rok && ls.Table == rs.Table {
					selfJoin++
				}
			case *plan.Project:
				if _, ok := x.Input.(*plan.Join); ok {
					joinUnderProject++
				}
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		for _, q := range queries {
			walk(q.Root)
		}
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v\nSQL: %v", seed, err, w.SQL)
		}
		if m != nil {
			reportMismatch(t, w, m, opts)
		}
	}
	t.Logf("%d workloads: %d joins over joins, %d joins under projections, %d self-joins",
		workloads, joinOverJoin, joinUnderProject, selfJoin)
	if joinOverJoin == 0 || joinUnderProject == 0 || selfJoin == 0 {
		t.Errorf("the deep-join family lost a shape: %d joins over joins, %d under projections, %d self-joins",
			joinOverJoin, joinUnderProject, selfJoin)
	}
}

// TestSchedulerInvariance focuses the differential harness on the
// scheduler runtime alone: ≥100 seeded workloads driven through
// internal/sched on a virtual clock — random pace vectors, window splits,
// worker counts, and zero deadlines so the degradation policy rewrites
// paces mid-run — must all reach the oracle's trigger-point results.
func TestSchedulerInvariance(t *testing.T) {
	workloads := 100
	if !testing.Short() {
		workloads = 300
	}
	opts := oracle.CheckOptions{
		PaceVectors: 0, Workers: []int{1, 4}, Scheduler: true,
	}
	for seed := int64(0); seed < int64(workloads); seed++ {
		w := oracle.Generate(seed*31+7, oracle.DefaultOptions())
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v\nSQL: %v", w.Seed, err, w.SQL)
		}
		if m != nil {
			reportMismatch(t, w, m, opts)
		}
	}
}

// TestDifferentialChurn is the online-admission differential test: seeded
// workloads carrying random churn schedules (queries admitted to and retired
// from the live plan at window boundaries) are driven through the graft path
// with state transplant on and off. Every live query must match the naive
// oracle over the ingested prefix after every window, and the final
// modeled-work report must be byte-identical to a from-scratch run of the
// final plan — grafting must be observationally invisible. The schedules must
// also make the graft reattach executors over re-pointed inputs, or a change
// that silently stopped it would pass unnoticed.
func TestDifferentialChurn(t *testing.T) {
	workloads := 200
	if !testing.Short() {
		workloads = 1000
	}
	genOpts := oracle.DefaultOptions()
	genOpts.Churn = true
	reattached := 0
	opts := oracle.CheckOptions{Churn: true, PaceVectors: 1, Reattached: &reattached}
	churned := 0
	for seed := int64(0); seed < int64(workloads); seed++ {
		w := oracle.Generate(seed, genOpts)
		if w.Churn != nil {
			churned++
		}
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v\nSQL: %v", seed, err, w.SQL)
		}
		if m != nil {
			reportMismatch(t, w, m, opts)
		}
	}
	if churned < workloads/2 {
		t.Errorf("only %d/%d workloads carried a churn plan; generator drifted", churned, workloads)
	}
	if reattached == 0 {
		t.Error("no graft reattached an executor over a rebuilt input")
	}
	t.Logf("%d churned workloads, %d reattachments", churned, reattached)
}

// TestInjectedAdmissionBugCaught proves the churn oracle has teeth: with the
// graft's loose state matching enabled — adopting existing operator state
// for an admitted query without catching up its bitvector stamps, the
// classic online-admission bug — the differential test must find a
// divergence and shrink it to a runnable reproducer.
func TestInjectedAdmissionBugCaught(t *testing.T) {
	exec.DebugGraftLooseMatch = true
	defer func() { exec.DebugGraftLooseMatch = false }()

	genOpts := oracle.DefaultOptions()
	genOpts.Churn = true
	opts := oracle.CheckOptions{Churn: true, PaceVectors: 1}
	for seed := int64(0); seed < 300; seed++ {
		w := oracle.Generate(seed, genOpts)
		if w.Churn == nil {
			continue
		}
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m == nil {
			continue
		}
		shrunk := oracle.Shrink(w, failingFor(opts))
		if sm, err := oracle.Check(shrunk, opts); err != nil || sm == nil {
			t.Fatalf("shrink lost the failure: m=%v err=%v", sm, err)
		}
		if shrunk.Churn == nil {
			t.Error("shrunk reproducer lost its churn plan — the bug needs an admission to fire")
		}
		if len(shrunk.SQL) > 3 {
			t.Errorf("shrunk reproducer has %d queries, want ≤ 3", len(shrunk.SQL))
		}
		if shrunk.Deltas() > 16 {
			t.Errorf("shrunk reproducer has %d deltas, want ≤ 16", shrunk.Deltas())
		}
		if t.Failed() {
			t.Fatalf("reproducer:\n%s", oracle.ReproGo(shrunk))
		}
		return
	}
	t.Fatal("injected admission bug was never detected")
}

// TestDifferentialMinMax hammers the paper's hard case: MIN/MAX under
// deletion-heavy streams, where retracting the extremum forces a rescan.
func TestDifferentialMinMax(t *testing.T) {
	workloads := 120
	if !testing.Short() {
		workloads = 240
	}
	genOpts := oracle.DefaultOptions()
	genOpts.ForceMinMax = true
	opts := oracle.DefaultCheckOptions()
	for seed := int64(0); seed < int64(workloads); seed++ {
		w := oracle.Generate(seed, genOpts)
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v\nSQL: %v", seed, err, w.SQL)
		}
		if m != nil {
			reportMismatch(t, w, m, opts)
		}
	}
}

// TestInjectedBugCaught proves the harness has teeth: with the engine's
// MIN/MAX extremum rescan disabled (a realistic broken-IVM bug), the
// differential test must find a divergence and shrink it to a tiny
// reproducer.
func TestInjectedBugCaught(t *testing.T) {
	exec.DebugSkipExtremumRescan = true
	defer func() { exec.DebugSkipExtremumRescan = false }()

	genOpts := oracle.DefaultOptions()
	genOpts.ForceMinMax = true
	opts := oracle.DefaultCheckOptions()
	for seed := int64(0); seed < 200; seed++ {
		w := oracle.Generate(seed, genOpts)
		m, err := oracle.Check(w, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m == nil {
			continue
		}
		shrunk := oracle.Shrink(w, failingFor(opts))
		if sm, err := oracle.Check(shrunk, opts); err != nil || sm == nil {
			t.Fatalf("shrink lost the failure: m=%v err=%v", sm, err)
		}
		if len(shrunk.SQL) > 2 {
			t.Errorf("shrunk reproducer has %d queries, want ≤ 2", len(shrunk.SQL))
		}
		if shrunk.Deltas() > 10 {
			t.Errorf("shrunk reproducer has %d deltas, want ≤ 10", shrunk.Deltas())
		}
		if t.Failed() {
			t.Fatalf("reproducer:\n%s", oracle.ReproGo(shrunk))
		}
		return
	}
	t.Fatal("injected MIN/MAX bug was never detected")
}

// TestShrunkSeeds replays hand-kept shrunk workloads as deterministic
// regressions; see reportMismatch for how new entries are produced.
func TestShrunkSeeds(t *testing.T) {
	for _, seed := range shrunkSeeds {
		seed := seed
		t.Run(seed.name, func(t *testing.T) {
			m, err := oracle.Check(seed.w, oracle.DefaultCheckOptions())
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				t.Fatalf("engine diverges from oracle: %v", m)
			}
		})
	}
}

// TestWorkloadDeterminism: Generate is a pure function of (seed, opts).
func TestWorkloadDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := oracle.Generate(seed, oracle.DefaultOptions())
		b := oracle.Generate(seed, oracle.DefaultOptions())
		if fmt.Sprint(a.SQL) != fmt.Sprint(b.SQL) || a.Deltas() != b.Deltas() {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}
