package oracle_test

import (
	"testing"

	"ishare/internal/cost"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
)

// TestCostModelTracksGroundTruth bounds the cost model's error against two
// ground truths on generated workloads: the engine's actual work counters
// and the oracle's semantics-level row counts. The model is an estimator,
// not an emulator, so the bound is a ratio: the worst case measures 2.52x
// (seed 0, in the short run too), and 3x leaves about a fifth of headroom.
func TestCostModelTracksGroundTruth(t *testing.T) {
	workloads := int64(60)
	if testing.Short() {
		workloads = 25
	}
	const maxRatio = 3.0
	for seed := int64(0); seed < workloads; seed++ {
		w := oracle.Generate(seed, oracle.DefaultOptions())
		queries, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sp, err := mqo.Build(queries)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1
		}
		ev, err := cost.NewModel(g).Evaluate(paces)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runner, err := exec.NewDeltaRunner(g, exec.DeltaDataset(w.Streams))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := runner.Run(paces)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var ow oracle.Work
		tables := oracle.FinalTables(w.Streams)
		for _, q := range queries {
			oracle.Eval(q.Root, tables, &ow)
		}
		if rep.TotalWork > 0 && ev.Total <= 0 {
			t.Errorf("seed %d: engine did %d work but model estimates %.1f", seed, rep.TotalWork, ev.Total)
		}
		// The +32 offset keeps tiny workloads (a handful of tuples) from
		// dominating the ratio.
		ratio := (ev.Total + 32) / (float64(rep.TotalWork) + 32)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > maxRatio {
			t.Errorf("seed %d: model estimate %.1f vs engine work %d (oracle rows %d): ratio %.2f exceeds %.1fx",
				seed, ev.Total, rep.TotalWork, ow.Total(), ratio, maxRatio)
		}
		// The engine cannot do less final-materialization work than the
		// relational semantics require rows to exist: oracle scan rows are
		// a floor on tuples the engine must have ingested across the run
		// only when no deletes cancel out, so assert the weaker invariant
		// that a workload with live rows produced engine work.
		if ow.Total() > 0 && rep.TotalWork == 0 {
			t.Errorf("seed %d: oracle touched %d rows but engine reported no work", seed, ow.Total())
		}
	}
}
