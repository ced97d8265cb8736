package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/opt"
	"ishare/internal/profile"
	"ishare/internal/sched"
)

// SchedResult is the scheduler-backed variant of the latency experiment
// (Figures 9/13 recast in clock terms): instead of comparing measured final
// work against work-unit goals, each approach's optimized plan is driven
// through the wall-clock scheduler runtime on a virtual clock, with every
// query's latency constraint translated into a clock deadline after each
// trigger point. Reported are real deadline outcomes — met, missed, and the
// degradation decisions the runtime took when a pace vector overloaded its
// window.
type SchedResult struct {
	Names    []string
	Rel      []float64
	Window   time.Duration
	Windows  int
	WorkRate float64
	Rows     []SchedRow
}

// SchedRow is one approach's outcome.
type SchedRow struct {
	Approach opt.Approach
	// TotalWork sums every incremental execution across the approach's
	// jobs and windows.
	TotalWork int64
	// Met and Missed count (query, window) deadline outcomes.
	Met, Missed int
	// Decisions counts degradation steps the runtime took.
	Decisions int
	// Recalibrations counts closed-loop cost recalibrations (drift folded
	// into the model, paces re-searched warm).
	Recalibrations int
	// Coarsened counts subplans whose final pace ended below its planned
	// pace.
	Coarsened int
	// OptTime is the planning wall time.
	OptTime time.Duration
}

// schedQueryNames is the experiment's query set — the sharing-friendly
// lineitem trio also used by the incrementability studies.
var schedQueryNames = []string{"Q1", "Q6", "Q14"}

// SchedulerLatency plans the query set under every approach and executes
// each plan through internal/sched. A non-nil registry receives the
// schedulers' metrics (the -serve-metrics endpoint passes one in); nil
// keeps them private.
func SchedulerLatency(cfg Config, reg *metrics.Registry) (*SchedResult, error) {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, schedQueryNames, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rel := RandomRel(len(w.Queries), rng)
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		return nil, err
	}

	const windows = 4
	window := time.Second
	// Calibrate the modeled work rate so one batch pass over all queries
	// fills about half a window: deadlines (fractions of each query's
	// batch work) land well inside the window, and eager paces genuinely
	// compete for window time.
	var sumBatch int64
	for _, b := range w.BatchFinal {
		sumBatch += b
	}
	workRate := 2 * float64(sumBatch) / window.Seconds()

	res := &SchedResult{
		Names: w.Names, Rel: rel,
		Window: window, Windows: windows, WorkRate: workRate,
	}
	data := exec.InsertStream(w.Data)
	req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: cfg.MaxPace, Trace: cfg.Tracer}
	for _, a := range DefaultApproaches {
		p, err := opt.Plan(a, req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		row := SchedRow{Approach: a, OptTime: p.OptDuration}
		for ji, job := range p.Jobs {
			deadlines := make([]time.Duration, len(job.QueryIDs))
			for local, global := range job.QueryIDs {
				goal := rel[global] * float64(w.BatchFinal[global])
				deadlines[local] = time.Duration(goal / workRate * float64(time.Second))
			}
			var prof *profile.Profiler
			if (cfg.Profile || cfg.Recalibrate) && job.Model != nil {
				// Baseline each subplan on the cost model's per-window
				// prediction under the scheduled pace vector — the same
				// evaluation that chose the paces, so drift means "reality
				// left the plan's assumptions". The evaluation covers the
				// whole dataset and each window gets 1/windows of it, the
				// scale RecalibratePolicy.BaselineScale defaults to.
				if ev, err := job.Model.Evaluate(job.Paces); err == nil {
					base := make([]float64, len(ev.SubTotal))
					for i, v := range ev.SubTotal {
						base[i] = v / windows
					}
					prof = profile.New(profile.Config{
						Subplans: len(job.Graph.Subplans),
						Modeled:  base,
					})
				}
			}
			var recal *sched.RecalibratePolicy
			if cfg.Recalibrate && prof != nil {
				jobCons := make([]float64, len(job.QueryIDs))
				for local, global := range job.QueryIDs {
					jobCons[local] = abs[global]
				}
				recal = &sched.RecalibratePolicy{
					Model:       job.Model,
					Constraints: jobCons,
					MaxPace:     cfg.MaxPace,
				}
			}
			s, err := sched.New(job.Graph, job.Paces, sched.Slices{Data: data, N: windows}, sched.Config{
				Window:      window,
				Windows:     windows,
				Clock:       sched.NewVirtualClock(time.Unix(0, 0)),
				WorkRate:    workRate,
				Deadlines:   deadlines,
				Metrics:     reg,
				Tracer:      cfg.Tracer,
				TraceName:   fmt.Sprintf("%s job %d", a, ji),
				Profile:     prof,
				Events:      cfg.Events,
				Status:      cfg.Status,
				Recalibrate: recal,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			r, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			row.TotalWork += r.TotalWork
			row.Met += r.Met
			row.Missed += r.Missed
			row.Decisions += len(r.Decisions)
			row.Recalibrations += len(r.Recalibrations)
			for i, fp := range r.FinalPaces {
				if fp < job.Paces[i] {
					row.Coarsened++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Report writes the result table.
func (r *SchedResult) Report(out io.Writer) {
	fprintf(out, "Scheduler-backed latency experiment: queries %v, rel %v\n", r.Names, r.Rel)
	fprintf(out, "window %s × %d, modeled work rate %.0f units/s\n", r.Window, r.Windows, r.WorkRate)
	fprintf(out, "%-20s %12s %6s %6s %10s %8s %10s %12s\n",
		"approach", "total work", "met", "miss", "degrades", "recals", "coarsened", "opt time")
	for _, row := range r.Rows {
		fprintf(out, "%-20s %12d %6d %6d %10d %8d %10d %12s\n",
			row.Approach, row.TotalWork, row.Met, row.Missed, row.Decisions, row.Recalibrations, row.Coarsened, row.OptTime)
	}
}
