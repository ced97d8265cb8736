package ishare

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5). Each bench runs the corresponding experiment driver
// end-to-end — planning with the cost model and measuring the execution
// engine — at a laptop scale factor, and reports the headline quantities as
// custom benchmark metrics (work units and optimization milliseconds) so
// `go test -bench` output doubles as the reproduction record. See
// EXPERIMENTS.md for the paper-vs-measured discussion.

import (
	"fmt"
	"testing"
	"time"

	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/exec"
	"ishare/internal/experiments"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/pace"
	"ishare/internal/tpch"
)

// benchConfig is the shared experiment scale for benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{
		SF:        0.02,
		Seed:      1,
		MaxPace:   40,
		DNFBudget: 20 * time.Second,
	}
}

func reportApproaches(b *testing.B, names []opt.Approach, totals []int64) {
	b.Helper()
	for i, a := range names {
		b.ReportMetric(float64(totals[i]), "work_"+metricName(a))
	}
}

func metricName(a opt.Approach) string {
	switch a {
	case opt.NoShareUniform:
		return "nsu"
	case opt.NoShareNonuniform:
		return "nsn"
	case opt.ShareUniform:
		return "su"
	case opt.IShareNoUnshare:
		return "ishare_nounshare"
	case opt.IShare:
		return "ishare"
	case opt.IShareBruteForce:
		return "ishare_bf"
	default:
		return "unknown"
	}
}

// BenchmarkFigure9 regenerates Figure 9: total work under random relative
// constraints for the four approaches over the 22 adapted TPC-H queries.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Mean)
	}
}

// BenchmarkFigure10 regenerates Figure 10: shared vs independent batch
// execution.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SharedTotal), "work_shared")
		b.ReportMetric(float64(r.IndependentTotal), "work_independent")
		b.ReportMetric(100*r.Reduction(), "reduction_pct")
	}
}

// BenchmarkFigure11 regenerates Figure 11: uniform relative constraints over
// all 22 queries (the tightest row, rel 0.1, is reported).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Total[len(r.Total)-1])
	}
}

// BenchmarkFigure12 regenerates Figure 12: uniform constraints over the
// overlapping 10-query subset.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Total[len(r.Total)-1])
	}
}

// BenchmarkTable1 regenerates Table 1: missed latencies for the random and
// uniform constraint tests (mean relative misses reported per approach).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		f9, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f11, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f12, err := experiments.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1 := experiments.Table1(f9, f11, f12)
		for j, a := range t1.Approaches {
			b.ReportMetric(100*t1.Random[j].MeanRel, "rndmiss_pct_"+metricName(a))
			b.ReportMetric(100*t1.Uniform[j].MeanRel, "unimiss_pct_"+metricName(a))
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13 and Table 2: manually tuned pace
// configurations at relative goal 0.1.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Total)
	}
}

// BenchmarkTable2 reports the tuned run's missed latencies.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j, a := range r.Approaches {
			b.ReportMetric(100*r.Miss[j].MeanRel, "miss_pct_"+metricName(a))
		}
	}
}

// BenchmarkFigure14 regenerates Figure 14: the decomposition study over the
// sharing-friendly 20-query set (tightest constraint row reported).
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Total[len(r.Total)-1])
	}
}

// BenchmarkTable3 reports the decomposition run's missed latencies.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j, a := range r.Approaches {
			b.ReportMetric(100*r.Miss[j].MeanRel, "miss_pct_"+metricName(a))
		}
	}
}

// BenchmarkFigure15 regenerates Figure 15: optimization overhead vs max
// pace, memoized vs simulate-from-scratch.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure15(benchConfig(), []int{10, 25, 50})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.MaxPaces) - 1
		b.ReportMetric(float64(r.WithMemo[last].Milliseconds()), "memo_ms")
		if r.WithoutMemo[last] == experiments.DNF {
			b.ReportMetric(-1, "nomemo_ms")
		} else {
			b.ReportMetric(float64(r.WithoutMemo[last].Milliseconds()), "nomemo_ms")
		}
	}
}

// BenchmarkFigure16 regenerates Figure 16: clustering vs brute-force
// decomposition search time as the shared query count grows.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure16(benchConfig(), []int{2, 4, 6})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.QueryCounts) - 1
		b.ReportMetric(float64(r.Clustering[last].Microseconds()), "cluster_us")
		b.ReportMetric(float64(r.BruteForce[last].Microseconds()), "bruteforce_us")
	}
}

// BenchmarkFigure17a/b/c regenerate the incrementability micro-benchmarks
// (PairA: both incrementable; PairB: mixed; PairC: the paper's Q_A/Q_B).
func benchFigure17(b *testing.B, label string) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure17(benchConfig(), label)
		if err != nil {
			b.Fatal(err)
		}
		reportApproaches(b, r.Approaches, r.Total[len(r.Total)-1])
	}
}

func BenchmarkFigure17a(b *testing.B) { benchFigure17(b, "PairA") }
func BenchmarkFigure17b(b *testing.B) { benchFigure17(b, "PairB") }
func BenchmarkFigure17c(b *testing.B) { benchFigure17(b, "PairC") }

// BenchmarkAblationPartialDecomposition compares whole-subplan decomposition
// against partial (subtree) decomposition — the design choice of §4.3.
func BenchmarkAblationPartialDecomposition(b *testing.B) {
	cfg := benchConfig()
	w, err := experiments.NewWorkload(cfg, []string{"Q15", "Q17"}, true)
	if err != nil {
		b.Fatal(err)
	}
	abs, err := opt.AbsoluteConstraints(w.Queries, experiments.UniformRel(len(w.Queries), 0.1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, partial := range []bool{false, true} {
			d := &decompose.Decomposer{
				Queries:     w.Queries,
				Constraints: abs,
				Opts:        decompose.Options{MaxPace: cfg.MaxPace, Unshare: true, Partial: partial},
			}
			res, err := d.Optimize()
			if err != nil {
				b.Fatal(err)
			}
			name := "work_whole"
			if partial {
				name = "work_partial"
			}
			b.ReportMetric(res.Eval.Total, name)
		}
	}
}

// BenchmarkAblationCalibration measures the §3.2 recurring-query feedback
// loop: the second recurrence is planned with per-subplan factors learned
// from the first, and the bench reports the mean relative missed latency
// before and after calibration.
func BenchmarkAblationCalibration(b *testing.B) {
	cfg := benchConfig()
	w, err := experiments.NewWorkload(cfg, []string{"Q1", "Q3", "Q5", "Q10", "Q15", "Q18"}, false)
	if err != nil {
		b.Fatal(err)
	}
	rel := experiments.UniformRel(len(w.Queries), 0.2)
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: cfg.MaxPace}
		p1, err := opt.Plan(opt.IShareNoUnshare, req)
		if err != nil {
			b.Fatal(err)
		}
		o1, calib, err := opt.ExecuteWithCalibration(p1, w.Data, len(w.Queries))
		if err != nil {
			b.Fatal(err)
		}
		// The calibrated model estimates in engine units, so the second
		// recurrence states its goals against the measured batch finals —
		// the paper's "adjust the constraint based on prior executions".
		req.Calibration = calib
		absMeasured := make([]float64, len(w.Queries))
		for q := range w.Queries {
			absMeasured[q] = rel[q] * float64(w.BatchFinal[q])
		}
		req.Constraints = absMeasured
		p2, err := opt.Plan(opt.IShareNoUnshare, req)
		if err != nil {
			b.Fatal(err)
		}
		req.Constraints = abs
		o2, err := opt.Execute(p2, w.Data, len(w.Queries))
		if err != nil {
			b.Fatal(err)
		}
		missRate := func(o *opt.Outcome) float64 {
			var sum float64
			for q := range w.Queries {
				goal := rel[q] * float64(w.BatchFinal[q])
				if goal > 0 {
					if miss := float64(o.QueryFinal[q]) - goal; miss > 0 {
						sum += miss / goal
					}
				}
			}
			return 100 * sum / float64(len(w.Queries))
		}
		b.ReportMetric(missRate(o1), "miss_pct_raw")
		b.ReportMetric(missRate(o2), "miss_pct_calibrated")
		b.ReportMetric(float64(o2.TotalWork), "work_calibrated")
	}
}

// BenchmarkUpdateStream measures incremental maintenance cost over an
// update-bearing change stream (deletes + inserts) vs the insert-only
// stream — the deletion amplification underlying the paper's Figure 1.
func BenchmarkUpdateStream(b *testing.B) {
	cfg := benchConfig()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := tpch.ByName("Q1", "Q15", "Q18")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		b.Fatal(err)
	}
	run := func(frac float64) int64 {
		sp, err := mqo.Build(bound)
		if err != nil {
			b.Fatal(err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			b.Fatal(err)
		}
		r, err := exec.NewDeltaRunner(g, tpch.GenerateWithUpdates(cfg.SF, cfg.Seed, frac))
		if err != nil {
			b.Fatal(err)
		}
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 10
		}
		rep, err := r.Run(paces)
		if err != nil {
			b.Fatal(err)
		}
		return rep.TotalWork
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(0)), "work_insert_only")
		b.ReportMetric(float64(run(0.2)), "work_20pct_updates")
	}
}

// benchBind binds the named TPC-H queries into a shared subplan graph.
func benchBind(b *testing.B, cfg experiments.Config, names []string) *mqo.Graph {
	b.Helper()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := tpch.ByName(names...)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		b.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkModelEvaluate measures one cost-model evaluation on a six-query
// shared graph with a wandering pace vector, mixing memo hits and misses —
// the inner loop of the greedy search.
func BenchmarkModelEvaluate(b *testing.B) {
	cfg := benchConfig()
	g := benchBind(b, cfg, []string{"Q1", "Q3", "Q5", "Q10", "Q15", "Q18"})
	m := cost.NewModel(g)
	paces := pace.Ones(len(g.Subplans))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paces[i%len(paces)] = 1 + i%25
		if _, err := m.Evaluate(paces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySearch runs the full greedy pace search on the
// Figure-15-scale workload (all 22 queries, relative constraint 0.01) with a
// cold memo table per iteration, at several candidate-evaluation worker
// counts (workers=1 is the sequential search; all counts return identical
// pace configurations).
func BenchmarkGreedySearch(b *testing.B) {
	cfg := benchConfig()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := tpch.ByName(experiments.AllQueryNames()...)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		b.Fatal(err)
	}
	abs, err := opt.AbsoluteConstraints(bound, experiments.UniformRel(len(bound), 0.01))
	if err != nil {
		b.Fatal(err)
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		b.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := cost.NewModel(g)
				o, err := pace.NewOptimizer(m, abs, 25)
				if err != nil {
					b.Fatal(err)
				}
				o.Workers = workers
				if _, _, err := o.Greedy(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanJob measures one whole planning job, the operation of the
// repository benchmark's optimizer-bound workload: the 22 queries as SQL text
// → tpch.Bind → opt.AbsoluteConstraints → opt.Plan(IShare, MaxPace 40,
// Workers 1). Query q gets relative constraint level (q+i) mod 4 in
// iteration i, so consecutive iterations search different paces. `make
// profile` profiles it.
func BenchmarkPlanJob(b *testing.B) {
	cfg := benchConfig()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, err := tpch.Bind(tpch.All(), cat, false)
		if err != nil {
			b.Fatal(err)
		}
		rel := make([]float64, len(bound))
		for q := range rel {
			rel[q] = levels[(q+i)%len(levels)]
		}
		abs, err := opt.AbsoluteConstraints(bound, rel)
		if err != nil {
			b.Fatal(err)
		}
		req := opt.Request{Queries: bound, Constraints: abs, MaxPace: cfg.MaxPace, Workers: 1}
		if _, err := opt.Plan(opt.IShare, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecJob measures the executor's share of one job of the
// repository benchmark's executor-bound workload: the 22 queries at SF 2
// (177k insert-only rows), query q at relative constraint level q mod 4,
// planned once by opt.Plan(IShare, MaxPace 40) outside the timer; each
// iteration builds one exec.Runner per planned job and runs it at the
// planned paces. `make profile PROFILE_BENCH=ExecJob` profiles it.
func BenchmarkExecJob(b *testing.B) {
	const sf = 2
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	rel := make([]float64, len(bound))
	for q := range rel {
		rel[q] = levels[q%len(levels)]
	}
	abs, err := opt.AbsoluteConstraints(bound, rel)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: abs, MaxPace: benchConfig().MaxPace, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := tpch.Generate(sf, benchConfig().Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pj := range planned.Jobs {
			r, err := exec.NewRunner(pj.Graph, data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(pj.Paces); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAdmit measures online admission onto a live shared plan: "warm"
// admits Q22 into a running {Q1, Q6} plan — matching state-identical
// subplans against the previous revision and transplanting their memoized
// cost rows before the pace search — while "cold" plans the same final
// three-query set from scratch. Q22 shares no table with the lineitem
// pair, so every existing subplan carries over and the warm search only
// simulates the admitted chain. Both searches walk the same path and pick
// the same pace vector; the memo transplant is the only difference, so the
// warm/cold gap is the cost of the simulations the transplant avoids
// (sims_warm vs sims_cold report the per-admission simulation counts).
func BenchmarkAdmit(b *testing.B) {
	cfg := benchConfig()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := tpch.ByName("Q1", "Q6", "Q22")
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		b.Fatal(err)
	}
	abs, err := opt.AbsoluteConstraints(bound, experiments.UniformRel(len(bound), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	const maxPace = 25

	b.Run("warm", func(b *testing.B) {
		live, err := opt.NewLive(opt.Request{
			Queries: bound[:2], Constraints: abs[:2], MaxPace: maxPace,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sims int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot, rep, err := live.Admit(bound[2], abs[2])
			if err != nil {
				b.Fatal(err)
			}
			sims = rep.Sims
			b.StopTimer()
			if _, err := live.Retire(slot); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(sims), "sims_warm")
	})
	b.Run("cold", func(b *testing.B) {
		var sims int64
		for i := 0; i < b.N; i++ {
			cold, err := opt.NewLive(opt.Request{
				Queries: bound, Constraints: abs, MaxPace: maxPace,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			sims = cold.Model.Sims
		}
		b.ReportMetric(float64(sims), "sims_cold")
	})
}

// BenchmarkJoinProbe measures the engine's symmetric-hash-join hot path: a
// join-heavy three-query shared plan executed incrementally at pace 8, where
// per-tuple key evaluation, probing and emission dominate.
func BenchmarkJoinProbe(b *testing.B) {
	cfg := benchConfig()
	g := benchBind(b, cfg, []string{"Q3", "Q5", "Q10"})
	data := tpch.Generate(cfg.SF, cfg.Seed)
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exec.NewRunner(g, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(paces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures raw shared-execution throughput: the
// 22-query shared plan in batch over the generated dataset.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := benchConfig()
	w, err := experiments.NewWorkload(cfg, experiments.AllQueryNames(), false)
	if err != nil {
		b.Fatal(err)
	}
	abs, err := opt.AbsoluteConstraints(w.Queries, experiments.UniformRel(len(w.Queries), 1.0))
	if err != nil {
		b.Fatal(err)
	}
	p, err := opt.Plan(opt.ShareUniform, opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Execute(p, w.Data, len(w.Queries)); err != nil {
			b.Fatal(err)
		}
	}
}
