package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// Fig9Result holds Figure 9: total work under three random relative
// constraint assignments, 22 queries, four approaches.
type Fig9Result struct {
	Approaches []opt.Approach
	// Mean, Min, Max total work per approach across the constraint sets.
	Mean, Min, Max []int64
	// Runs are all individual measurements (input to Table 1).
	Runs [][]ApproachResult
}

// Figure9 runs the random-constraint experiment (paper §5.3).
func Figure9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, AllQueryNames(), false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	res := &Fig9Result{Approaches: DefaultApproaches}
	const sets = 3
	sums := make([]int64, len(res.Approaches))
	res.Min = make([]int64, len(res.Approaches))
	res.Max = make([]int64, len(res.Approaches))
	for set := 0; set < sets; set++ {
		rel := RandomRel(len(w.Queries), rng)
		runs, err := w.RunApproaches(rel, cfg.MaxPace, res.Approaches)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, runs)
		for i, r := range runs {
			sums[i] += r.TotalWork
			if set == 0 || r.TotalWork < res.Min[i] {
				res.Min[i] = r.TotalWork
			}
			if r.TotalWork > res.Max[i] {
				res.Max[i] = r.TotalWork
			}
		}
	}
	res.Mean = make([]int64, len(res.Approaches))
	for i := range sums {
		res.Mean[i] = sums[i] / sets
	}
	return res, nil
}

// Report prints the figure's series.
func (r *Fig9Result) Report(w io.Writer) {
	fprintf(w, "Figure 9: total work, random relative constraints (22 queries)\n")
	fprintf(w, "%-22s %12s %12s %12s\n", "approach", "mean", "min", "max")
	for i, a := range r.Approaches {
		fprintf(w, "%-22s %12d %12d %12d\n", a, r.Mean[i], r.Min[i], r.Max[i])
	}
}

// Fig10Result holds Figure 10: batch execution of the shared plan vs
// executing each query independently in one batch.
type Fig10Result struct {
	SharedTotal      int64
	IndependentTotal int64
	// PerQueryIndependent lists each query's separate batch total work.
	PerQueryIndependent []int64
	Names               []string
}

// Figure10 measures the raw benefit of shared batch execution.
func Figure10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, AllQueryNames(), false)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Names: w.Names}
	// Independent batch: NoShare-Uniform with relative constraint 1.0
	// keeps every pace at 1.
	rel := UniformRel(len(w.Queries), 1.0)
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		return nil, err
	}
	req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: 1}
	ns, err := opt.Plan(opt.NoShareUniform, req)
	if err != nil {
		return nil, err
	}
	for _, job := range ns.Jobs {
		o, err := opt.Execute(&opt.Planned{Jobs: []opt.Job{job}}, w.Data, len(w.Queries), 1, nil)
		if err != nil {
			return nil, err
		}
		res.PerQueryIndependent = append(res.PerQueryIndependent, o.TotalWork)
		res.IndependentTotal += o.TotalWork
	}
	su, err := opt.Plan(opt.ShareUniform, req)
	if err != nil {
		return nil, err
	}
	so, err := opt.Execute(su, w.Data, len(w.Queries), 1, nil)
	if err != nil {
		return nil, err
	}
	res.SharedTotal = so.TotalWork
	return res, nil
}

// Reduction returns the shared plan's batch work reduction.
func (r *Fig10Result) Reduction() float64 {
	if r.IndependentTotal == 0 {
		return 0
	}
	return 1 - float64(r.SharedTotal)/float64(r.IndependentTotal)
}

// Report prints the figure.
func (r *Fig10Result) Report(w io.Writer) {
	fprintf(w, "Figure 10: batch execution (22 queries)\n")
	fprintf(w, "independent sum = %d, shared = %d, reduction = %.1f%%\n",
		r.IndependentTotal, r.SharedTotal, 100*r.Reduction())
	for i, n := range r.Names {
		fprintf(w, "  %-5s independent batch work %d\n", n, r.PerQueryIndependent[i])
	}
}

// FigUniformResult holds Figures 11 and 12: total work per uniform relative
// constraint per approach.
type FigUniformResult struct {
	Figure     string
	Rels       []float64
	Approaches []opt.Approach
	// Total[i][j] is approach j's total work at Rels[i].
	Total [][]int64
	// Runs feed Table 1.
	Runs []ApproachResult
}

// UniformRels are the sweep values used throughout the evaluation.
var UniformRels = []float64{1.0, 0.5, 0.2, 0.1}

func figureUniform(cfg Config, figure string, names []string) (*FigUniformResult, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, names, false)
	if err != nil {
		return nil, err
	}
	res := &FigUniformResult{Figure: figure, Rels: UniformRels, Approaches: DefaultApproaches}
	for _, rel := range res.Rels {
		runs, err := w.RunApproaches(UniformRel(len(w.Queries), rel), cfg.MaxPace, res.Approaches)
		if err != nil {
			return nil, err
		}
		row := make([]int64, len(runs))
		for j, r := range runs {
			row[j] = r.TotalWork
		}
		res.Total = append(res.Total, row)
		res.Runs = append(res.Runs, runs...)
	}
	return res, nil
}

// Figure11 sweeps uniform constraints over all 22 queries.
func Figure11(cfg Config) (*FigUniformResult, error) {
	return figureUniform(cfg, "Figure 11 (22 queries)", AllQueryNames())
}

// Figure12 sweeps uniform constraints over the overlapping 10-query set.
func Figure12(cfg Config) (*FigUniformResult, error) {
	return figureUniform(cfg, "Figure 12 (10 overlapping queries)", tpch.OverlappingTen)
}

// Report prints the sweep.
func (r *FigUniformResult) Report(w io.Writer) {
	fprintf(w, "%s: total work under uniform relative constraints\n", r.Figure)
	fprintf(w, "%-6s", "rel")
	for _, a := range r.Approaches {
		fprintf(w, " %22s", a)
	}
	fprintf(w, "\n")
	for i, rel := range r.Rels {
		fprintf(w, "%-6.2f", rel)
		for _, v := range r.Total[i] {
			fprintf(w, " %22d", v)
		}
		fprintf(w, "\n")
	}
}

// Table1Result holds Table 1: missed latencies for the random and uniform
// constraint tests.
type Table1Result struct {
	Approaches []opt.Approach
	Random     []MissStats
	Uniform    []MissStats
}

// Table1 derives missed-latency statistics from Figures 9, 11 and 12.
func Table1(fig9 *Fig9Result, fig11, fig12 *FigUniformResult) *Table1Result {
	t := &Table1Result{Approaches: fig9.Approaches}
	for j := range t.Approaches {
		var random, uniform []ApproachResult
		for _, set := range fig9.Runs {
			random = append(random, set[j])
		}
		for i := j; i < len(fig11.Runs); i += len(t.Approaches) {
			uniform = append(uniform, fig11.Runs[i])
		}
		for i := j; i < len(fig12.Runs); i += len(t.Approaches) {
			uniform = append(uniform, fig12.Runs[i])
		}
		t.Random = append(t.Random, AggregateMisses(random))
		t.Uniform = append(t.Uniform, AggregateMisses(uniform))
	}
	return t
}

// Report prints the table in the paper's layout (work units instead of
// seconds).
func (t *Table1Result) Report(w io.Writer) {
	fprintf(w, "Table 1: missed latencies (relative %% and absolute work units)\n")
	fprintf(w, "%-22s | %9s %10s %9s %10s | %9s %10s %9s %10s\n",
		"", "Rnd Mean%", "Rnd MeanW", "Rnd Max%", "Rnd MaxW",
		"Uni Mean%", "Uni MeanW", "Uni Max%", "Uni MaxW")
	for i, a := range t.Approaches {
		r, u := t.Random[i], t.Uniform[i]
		fprintf(w, "%-22s | %9.2f %10.0f %9.2f %10.0f | %9.2f %10.0f %9.2f %10.0f\n",
			a, 100*r.MeanRel, r.MeanAbs, 100*r.MaxRel, r.MaxAbs,
			100*u.MeanRel, u.MeanAbs, 100*u.MaxRel, u.MaxAbs)
	}
}

// Fig13Result holds Figure 13 and Table 2: manually tuned pace
// configurations at relative constraint 0.1.
type Fig13Result struct {
	Approaches []opt.Approach
	Total      []int64
	Miss       []MissStats
}

// Figure13 emulates the paper's manual tuning: NoShare-Uniform and
// Share-Uniform search a measured pace grid per query/plan; the nonuniform
// approaches iteratively tighten the relative constraints of queries that
// still miss their goals.
func Figure13(cfg Config) (*Fig13Result, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, AllQueryNames(), false)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Approaches: DefaultApproaches}
	const target = 0.1
	for _, a := range res.Approaches {
		run, err := tuneApproach(w, a, target, cfg.MaxPace)
		if err != nil {
			return nil, err
		}
		res.Total = append(res.Total, run.TotalWork)
		res.Miss = append(res.Miss, AggregateMisses([]ApproachResult{run}))
	}
	return res, nil
}

// tuneApproach lowers per-query relative constraints until the measured
// goals are met (or the adjustment bottoms out), emulating manual tuning.
func tuneApproach(w *Workload, a opt.Approach, target float64, maxPace int) (ApproachResult, error) {
	rel := UniformRel(len(w.Queries), target)
	adjusted := append([]float64(nil), rel...)
	var best ApproachResult
	for round := 0; round < 4; round++ {
		abs, err := opt.AbsoluteConstraints(w.Queries, adjusted)
		if err != nil {
			return ApproachResult{}, err
		}
		p, err := opt.Plan(a, opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: maxPace})
		if err != nil {
			return ApproachResult{}, err
		}
		o, err := opt.Execute(p, w.Data, len(w.Queries), 1, nil)
		if err != nil {
			return ApproachResult{}, err
		}
		// Misses are judged against the *original* goals.
		run := w.result(a, rel, p, o)
		if round == 0 || AggregateMisses([]ApproachResult{run}).MaxAbs <
			AggregateMisses([]ApproachResult{best}).MaxAbs {
			best = run
		}
		missed := false
		for q := range w.Queries {
			if run.MissAbs[q] > 0 && adjusted[q] > 0.012 {
				adjusted[q] /= 2
				missed = true
			}
		}
		if !missed {
			break
		}
	}
	return best, nil
}

// Report prints Figure 13's totals.
func (r *Fig13Result) Report(w io.Writer) {
	fprintf(w, "Figure 13: manually tuned paces (relative goal 0.1)\n")
	for i, a := range r.Approaches {
		fprintf(w, "%-22s total work %12d\n", a, r.Total[i])
	}
}

// Table2 prints the missed latencies of the tuned run.
func (r *Fig13Result) Table2(w io.Writer) {
	fprintf(w, "Table 2: missed latencies under manual tuning\n")
	fprintf(w, "%-22s %9s %10s %9s %10s\n", "", "Mean%", "MeanW", "Max%", "MaxW")
	for i, a := range r.Approaches {
		m := r.Miss[i]
		fprintf(w, "%-22s %9.2f %10.0f %9.2f %10.0f\n",
			a, 100*m.MeanRel, m.MeanAbs, 100*m.MaxRel, m.MaxAbs)
	}
}

// Fig14Result holds Figure 14 and Table 3: the decomposition study over the
// sharing-friendly 20-query set (10 queries plus perturbed variants).
type Fig14Result struct {
	Rels       []float64
	Approaches []opt.Approach
	Total      [][]int64
	Miss       []MissStats
}

// Fig14Approaches adds the iShare ablations to the default set.
var Fig14Approaches = []opt.Approach{
	opt.NoShareUniform, opt.NoShareNonuniform, opt.ShareUniform,
	opt.IShareNoUnshare, opt.IShare, opt.IShareBruteForce,
}

// Figure14 runs the decomposition experiment (paper §5.4).
func Figure14(cfg Config) (*Fig14Result, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, tpch.OverlappingTen, true)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{Rels: UniformRels, Approaches: Fig14Approaches}
	byApproach := make([][]ApproachResult, len(res.Approaches))
	for _, rel := range res.Rels {
		runs, err := w.RunApproaches(UniformRel(len(w.Queries), rel), cfg.MaxPace, res.Approaches)
		if err != nil {
			return nil, err
		}
		row := make([]int64, len(runs))
		for j, r := range runs {
			row[j] = r.TotalWork
			byApproach[j] = append(byApproach[j], r)
		}
		res.Total = append(res.Total, row)
	}
	for _, runs := range byApproach {
		res.Miss = append(res.Miss, AggregateMisses(runs))
	}
	return res, nil
}

// Report prints Figure 14's totals.
func (r *Fig14Result) Report(w io.Writer) {
	fprintf(w, "Figure 14: decomposition on the 20-query sharing-friendly set\n")
	fprintf(w, "%-6s", "rel")
	for _, a := range r.Approaches {
		fprintf(w, " %22s", a)
	}
	fprintf(w, "\n")
	for i, rel := range r.Rels {
		fprintf(w, "%-6.2f", rel)
		for _, v := range r.Total[i] {
			fprintf(w, " %22d", v)
		}
		fprintf(w, "\n")
	}
}

// Table3 prints the decomposition run's missed latencies.
func (r *Fig14Result) Table3(w io.Writer) {
	fprintf(w, "Table 3: missed latencies, decomposition experiment\n")
	fprintf(w, "%-22s %9s %10s %9s %10s\n", "", "Mean%", "MeanW", "Max%", "MaxW")
	for i, a := range r.Approaches {
		m := r.Miss[i]
		fprintf(w, "%-22s %9.2f %10.0f %9.2f %10.0f\n",
			a, 100*m.MeanRel, m.MeanAbs, 100*m.MaxRel, m.MaxAbs)
	}
}

// Fig15Result holds Figure 15: end-to-end optimization time vs max pace,
// memoized vs simulate-from-scratch, plus the baseline planners.
type Fig15Result struct {
	MaxPaces []int
	// WithMemo and WithoutMemo are optimization wall times; a negative
	// duration marks DNF (exceeded Config.DNFBudget).
	WithMemo, WithoutMemo []time.Duration
	// Baseline is the summed planning time of the three baselines.
	Baseline []time.Duration
}

// DNF marks runs that exceeded the budget.
const DNF = time.Duration(-1)

// Figure15 measures optimization overhead (paper §5.5) at relative
// constraint 0.01 over all 22 queries.
func Figure15(cfg Config, maxPaces []int) (*Fig15Result, error) {
	cfg = cfg.withDefaults()
	if len(maxPaces) == 0 {
		maxPaces = []int{10, 25, 50, 100}
	}
	w, err := NewWorkload(cfg, AllQueryNames(), false)
	if err != nil {
		return nil, err
	}
	rel := UniformRel(len(w.Queries), 0.01)
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{MaxPaces: maxPaces}
	for _, mp := range maxPaces {
		timeOne := func(disableMemo bool) (time.Duration, error) {
			d := &decompose.Decomposer{
				Queries:     w.Queries,
				Constraints: abs,
				Opts: decompose.Options{
					MaxPace:     mp,
					Unshare:     true,
					DisableMemo: disableMemo,
					Deadline:    time.Now().Add(cfg.DNFBudget),
				},
			}
			start := time.Now()
			_, err := d.Optimize()
			if err == pace.ErrDeadline {
				return DNF, nil
			}
			if err != nil {
				return 0, err
			}
			return time.Since(start), nil
		}
		withMemo, err := timeOne(false)
		if err != nil {
			return nil, err
		}
		withoutMemo, err := timeOne(true)
		if err != nil {
			return nil, err
		}
		res.WithMemo = append(res.WithMemo, withMemo)
		res.WithoutMemo = append(res.WithoutMemo, withoutMemo)

		start := time.Now()
		req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: mp}
		for _, a := range []opt.Approach{opt.NoShareUniform, opt.NoShareNonuniform, opt.ShareUniform} {
			if _, err := opt.Plan(a, req); err != nil {
				return nil, err
			}
		}
		res.Baseline = append(res.Baseline, time.Since(start))
	}
	return res, nil
}

// Report prints the overhead series.
func (r *Fig15Result) Report(w io.Writer) {
	fprintf(w, "Figure 15: optimization overhead vs max pace (22 queries, rel 0.01)\n")
	fprintf(w, "%-8s %14s %14s %14s\n", "maxpace", "iShare w/memo", "iShare no-memo", "baselines")
	fmtDur := func(d time.Duration) string {
		if d == DNF {
			return "DNF"
		}
		return d.Round(time.Millisecond).String()
	}
	for i, mp := range r.MaxPaces {
		fprintf(w, "%-8d %14s %14s %14s\n", mp,
			fmtDur(r.WithMemo[i]), fmtDur(r.WithoutMemo[i]), fmtDur(r.Baseline[i]))
	}
}

// Fig16Result holds Figure 16: clustering vs brute-force decomposition time
// as the number of queries sharing one subplan grows.
type Fig16Result struct {
	QueryCounts []int
	Clustering  []time.Duration
	BruteForce  []time.Duration
	// BruteForceSims and ClusteringSims count partition simulations.
	ClusteringSims, BruteForceSims []int64
}

// Figure16 times the two split-search algorithms over a Q15 family sharing
// one subplan (paper §5.5).
func Figure16(cfg Config, queryCounts []int) (*Fig16Result, error) {
	cfg = cfg.withDefaults()
	if len(queryCounts) == 0 {
		queryCounts = []int{2, 3, 4, 5, 6, 7}
	}
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{QueryCounts: queryCounts}
	for _, n := range queryCounts {
		var family []tpch.Query
		for i := 0; i < n; i++ {
			family = append(family, tpch.Q15Shifted(i))
		}
		bound, err := tpch.Bind(family, cat, false)
		if err != nil {
			return nil, err
		}
		lp, err := localProblemFor(bound, cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		Cluster := decompose.Cluster(lp)
		res.Clustering = append(res.Clustering, time.Since(start))
		res.ClusteringSims = append(res.ClusteringSims, lp.Sims)
		_ = Cluster

		lp2, err := localProblemFor(bound, cfg)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		decompose.BruteForce(lp2)
		res.BruteForce = append(res.BruteForce, time.Since(start))
		res.BruteForceSims = append(res.BruteForceSims, lp2.Sims)
	}
	return res, nil
}

// localProblemFor builds the shared subplan's local problem with a tight
// uniform local constraint.
func localProblemFor(bound []plan.Query, cfg Config) (*decompose.LocalProblem, error) {
	sp, err := mqo.Build(bound)
	if err != nil {
		return nil, err
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		return nil, err
	}
	var shared *mqo.Subplan
	for _, s := range g.Subplans {
		if s.Queries.Count() >= 2 && (shared == nil || len(s.Ops) > len(shared.Ops)) {
			shared = s
		}
	}
	if shared == nil {
		return nil, fmt.Errorf("experiments: Q15 family shares nothing")
	}
	m := cost.NewModel(g)
	paces := pace.Ones(len(g.Subplans))
	inputs, err := m.SubplanInputs(shared, paces)
	if err != nil {
		return nil, err
	}
	batch, err := m.Evaluate(paces)
	if err != nil {
		return nil, err
	}
	constraints := make(map[int]float64)
	for _, q := range shared.Queries.Members() {
		constraints[q] = batch.SubFinal[shared.ID] * 0.1
	}
	return &decompose.LocalProblem{
		Sub:         shared,
		Inputs:      inputs,
		Constraints: constraints,
		MaxPace:     cfg.MaxPace,
	}, nil
}

// Report prints the comparison.
func (r *Fig16Result) Report(w io.Writer) {
	fprintf(w, "Figure 16: decomposition split search, clustering vs brute force\n")
	fprintf(w, "%-8s %14s %10s %14s %10s\n", "queries", "clustering", "sims", "bruteforce", "sims")
	for i, n := range r.QueryCounts {
		fprintf(w, "%-8d %14s %10d %14s %10d\n", n,
			r.Clustering[i].Round(time.Microsecond), r.ClusteringSims[i],
			r.BruteForce[i].Round(time.Microsecond), r.BruteForceSims[i])
	}
}

// Fig17Result holds Figure 17: total work for a query pair as the second
// query's relative constraint tightens.
type Fig17Result struct {
	Pair       string
	Names      [2]string
	Rels       []float64
	Approaches []opt.Approach
	Total      [][]int64
}

// Pairs for Figure 17, as in the paper: PairA is incrementable, PairB mixes
// incrementabilities, PairC is the paper's example pair.
var Fig17Pairs = []struct {
	Label  string
	First  string // fixed at relative constraint 1.0
	Second string // swept
}{
	{"PairA", "Q5", "Q8"},
	{"PairB", "Q15", "Q7"},
	{"PairC", "QA", "QB"},
}

// Figure17 runs one micro-benchmark pair by label (PairA, PairB, PairC).
func Figure17(cfg Config, label string) (*Fig17Result, error) {
	cfg = cfg.withDefaults()
	for _, p := range Fig17Pairs {
		if p.Label != label {
			continue
		}
		w, err := NewWorkload(cfg, []string{p.First, p.Second}, false)
		if err != nil {
			return nil, err
		}
		res := &Fig17Result{
			Pair:       label,
			Names:      [2]string{p.First, p.Second},
			Rels:       UniformRels,
			Approaches: DefaultApproaches,
		}
		for _, rel := range res.Rels {
			runs, err := w.RunApproaches([]float64{1.0, rel}, cfg.MaxPace, res.Approaches)
			if err != nil {
				return nil, err
			}
			row := make([]int64, len(runs))
			for j, r := range runs {
				row[j] = r.TotalWork
			}
			res.Total = append(res.Total, row)
		}
		return res, nil
	}
	return nil, fmt.Errorf("experiments: unknown pair %q", label)
}

// Report prints the pair's sweep.
func (r *Fig17Result) Report(w io.Writer) {
	fprintf(w, "Figure 17 %s (%s fixed at 1.0, %s swept)\n", r.Pair, r.Names[0], r.Names[1])
	fprintf(w, "%-6s", "rel")
	for _, a := range r.Approaches {
		fprintf(w, " %22s", a)
	}
	fprintf(w, "\n")
	for i, rel := range r.Rels {
		fprintf(w, "%-6.2f", rel)
		for _, v := range r.Total[i] {
			fprintf(w, " %22d", v)
		}
		fprintf(w, "\n")
	}
}
