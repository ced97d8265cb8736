// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) over the engine: total execution work under random,
// uniform and manually tuned final-work constraints (Figures 9–13, Tables
// 1–2), the decomposition study on the sharing-friendly query set (Figure
// 14, Table 3), optimization overhead with and without memoization (Figure
// 15), clustering vs brute-force decomposition (Figure 16), and the
// incrementability micro-benchmarks (Figure 17). Work units are the
// engine's deterministic proxy for CPU seconds; shapes — who wins and by
// roughly what factor — are the reproduction target, not absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ishare/internal/catalog"
	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/opt"
	"ishare/internal/plan"
	"ishare/internal/sched"
	"ishare/internal/tpch"
	"ishare/internal/trace"
)

// Config parameterizes an experiment run.
type Config struct {
	// SF is the TPC-H scale factor (see tpch.SizesFor).
	SF float64
	// Seed drives data generation and random constraint draws.
	Seed int64
	// MaxPace is J, the largest pace considered.
	MaxPace int
	// DNFBudget bounds each optimizer run in the overhead experiments;
	// slower runs are reported as DNF (paper: 30 minutes).
	DNFBudget time.Duration
	// Tracer optionally records the whole run — parse/build/search spans,
	// decision logs, scheduler firings — for -trace and -explain.
	Tracer *trace.Tracer
	// Events optionally receives every scheduler-backed experiment's
	// structured event log (-events); nil disables.
	Events *eventlog.Log
	// Status optionally receives the live scheduler status at each window
	// close, for the -serve-status statusz endpoint; nil disables.
	Status *sched.StatusBoard
	// Profile enables per-subplan drift profiling in scheduler-backed
	// experiments, baselined on each job's cost-model evaluation.
	Profile bool
	// Recalibrate closes the cost loop in scheduler-backed experiments:
	// when a drift alert persists, observed work is folded back into each
	// job's cost model and the pace vector is re-searched warm-started from
	// the live memo. Implies Profile (the loop triggers off drift alerts).
	Recalibrate bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.05
	}
	if c.MaxPace == 0 {
		c.MaxPace = 20
	}
	if c.DNFBudget == 0 {
		c.DNFBudget = 30 * time.Second
	}
	return c
}

// Workload is a bound query set plus generated data and measured per-query
// batch baselines.
type Workload struct {
	Catalog *catalog.Catalog
	Queries []plan.Query
	Names   []string
	Data    exec.Dataset
	// BatchFinal is each query's measured final work when executed
	// separately in one batch — the denominator of latency goals.
	BatchFinal []int64
	// Tracer is forwarded from Config into every planning request.
	Tracer *trace.Tracer
}

// NewWorkload binds the named queries (plus perturbed variants when
// withVariants is set) and generates the dataset.
func NewWorkload(cfg Config, names []string, withVariants bool) (*Workload, error) {
	cfg = cfg.withDefaults()
	cat, err := tpch.NewCatalog(cfg.SF)
	if err != nil {
		return nil, err
	}
	qs, err := tpch.ByName(names...)
	if err != nil {
		return nil, err
	}
	bound, err := tpch.BindTraced(qs, cat, false, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if withVariants {
		variants, err := tpch.BindTraced(qs, cat, true, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		bound = append(bound, variants...)
	}
	w := &Workload{Catalog: cat, Queries: bound, Data: tpch.Generate(cfg.SF, cfg.Seed), Tracer: cfg.Tracer}
	for _, q := range bound {
		w.Names = append(w.Names, q.Name)
	}
	w.BatchFinal, err = opt.MeasuredBatchFinals(bound, w.Data)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// ApproachResult is one approach's measured outcome under one constraint
// assignment.
type ApproachResult struct {
	Approach opt.Approach
	// Rel is the relative constraint per query.
	Rel []float64
	// TotalWork is the measured total work (all incremental executions).
	TotalWork int64
	// OptTime is the planning (optimization) wall time.
	OptTime time.Duration
	// MissAbs and MissRel are per-query missed latencies: the measured
	// final work above the goal, absolute (work units) and relative to
	// the goal.
	MissAbs []float64
	MissRel []float64
}

// DefaultApproaches are the four systems of Figures 9, 11–13 and 17.
var DefaultApproaches = []opt.Approach{
	opt.NoShareUniform, opt.NoShareNonuniform, opt.ShareUniform, opt.IShare,
}

// RunApproaches plans and executes each approach under the given relative
// constraints and computes missed latencies against measured batch goals.
func (w *Workload) RunApproaches(rel []float64, maxPace int, approaches []opt.Approach) ([]ApproachResult, error) {
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		return nil, err
	}
	req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: maxPace, Trace: w.Tracer}
	out := make([]ApproachResult, 0, len(approaches))
	for _, a := range approaches {
		p, err := opt.Plan(a, req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		o, err := opt.Execute(p, w.Data, len(w.Queries), 1, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		out = append(out, w.result(a, rel, p, o))
	}
	return out, nil
}

func (w *Workload) result(a opt.Approach, rel []float64, p *opt.Planned, o *opt.Outcome) ApproachResult {
	r := ApproachResult{
		Approach:  a,
		Rel:       append([]float64(nil), rel...),
		TotalWork: o.TotalWork,
		OptTime:   p.OptDuration,
		MissAbs:   make([]float64, len(w.Queries)),
		MissRel:   make([]float64, len(w.Queries)),
	}
	for q := range w.Queries {
		goal := rel[q] * float64(w.BatchFinal[q])
		miss := float64(o.QueryFinal[q]) - goal
		if miss < 0 {
			miss = 0
		}
		r.MissAbs[q] = miss
		if goal > 0 {
			r.MissRel[q] = miss / goal
		}
	}
	return r
}

// RandomRel draws one relative constraint per query from the paper's
// {1.0, 0.5, 0.2, 0.1}.
func RandomRel(n int, rng *rand.Rand) []float64 {
	choices := []float64{1.0, 0.5, 0.2, 0.1}
	out := make([]float64, n)
	for i := range out {
		out[i] = choices[rng.Intn(len(choices))]
	}
	return out
}

// UniformRel assigns the same relative constraint to every query.
func UniformRel(n int, rel float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rel
	}
	return out
}

// MissStats aggregates per-query missed latencies across a set of runs.
type MissStats struct {
	MeanRel, MeanAbs, MaxRel, MaxAbs float64
}

// AggregateMisses pools the per-query misses of all runs of one approach.
func AggregateMisses(runs []ApproachResult) MissStats {
	var s MissStats
	n := 0
	for _, r := range runs {
		for q := range r.MissAbs {
			n++
			s.MeanAbs += r.MissAbs[q]
			s.MeanRel += r.MissRel[q]
			if r.MissAbs[q] > s.MaxAbs {
				s.MaxAbs = r.MissAbs[q]
			}
			if r.MissRel[q] > s.MaxRel {
				s.MaxRel = r.MissRel[q]
			}
		}
	}
	if n > 0 {
		s.MeanAbs /= float64(n)
		s.MeanRel /= float64(n)
	}
	return s
}

// AllQueryNames lists the 22 adapted TPC-H query names.
func AllQueryNames() []string {
	var names []string
	for _, q := range tpch.All() {
		names = append(names, q.Name)
	}
	return names
}

// fprintf ignores write errors to keep report code linear; experiment
// output goes to in-memory or terminal writers.
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
