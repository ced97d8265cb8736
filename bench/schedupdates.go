package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"ishare/internal/delta"
	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/profile"
	"ishare/internal/sched"
	"ishare/internal/tpch"
	"ishare/internal/value"
)

// schedUpdates is the open-loop workload: the 10 overlapping TPC-H queries
// over a stream with 20% updates, planned once in set-up and then driven by
// the scheduler on the wall clock. Windows are anchored to the clock, so the
// load does not slow when the system does, and latency counts from each
// trigger's due instant.
type schedUpdates struct {
	sf float64
	// windows is the run length; fullWindows is the length the stream is
	// cut for, so that a reduced run takes the first windows of the same
	// stream at the same per-window volume.
	windows, fullWindows int
	window               time.Duration
	reduced              bool

	bound   []plan.Query
	abs     []float64
	graph   *mqo.Graph
	paces   []int
	modeled []float64 // per-subplan modeled work per window
	data    exec.DeltaDataset
	ref     [][]value.Row
	gate    outcome
	last    *sched.Scheduler // the latest drive's scheduler
}

func (w *schedUpdates) retained() interface{} { return w.last }

const updateFrac = 0.2

// lateAfter is the share of a window after which a trigger's results count
// as late, and so as failed: half a window. The slowest window of a run is
// final about 45 ms after its trigger on the box the sizes were frozen on; a
// third of a window (83 ms) would leave a slower box too little room.
const lateAfter = 2

func overlappingTen() ([]tpch.Query, error) { return tpch.ByName(tpch.OverlappingTen...) }

func (w *schedUpdates) setup(seed int64) error {
	queries, err := overlappingTen()
	if err != nil {
		return err
	}
	rel := fixedRels(len(queries))
	w.gate = outcome{}

	// Check scale: a four-window virtual-clock run against the naive
	// evaluator over the stream's net contents.
	small := &schedUpdates{sf: checkSF, windows: 4, fullWindows: 4, window: w.window}
	if err := small.plan(queries, rel, seed, checkMaxPace); err != nil {
		return err
	}
	tables := oracle.FinalTables(small.data)
	small.ref = make([][]value.Row, len(small.bound))
	for q, b := range small.bound {
		small.ref[q] = oracle.Eval(b.Root, tables, nil)
	}
	run, err := small.drive(nil, sched.NewVirtualClock(time.Unix(0, 0)), observers{})
	if err != nil {
		return err
	}
	w.gate.add(run.outcome)

	// Run scale: plan once, and take each query executed alone, unshared,
	// at batch pace over the same stream as the reference.
	if err := w.plan(queries, rel, seed, maxPace); err != nil {
		return err
	}
	w.ref, _, err = aloneAtBatchPace(w.bound, w.data)
	return err
}

func (w *schedUpdates) bind(queries []tpch.Query) ([]plan.Query, error) {
	cat, err := tpch.NewCatalog(w.sf)
	if err != nil {
		return nil, err
	}
	return tpch.Bind(queries, cat, false)
}

// plan generates the stream and optimizes the shared plan for it.
func (w *schedUpdates) plan(queries []tpch.Query, rel []float64, seed int64, maxPace int) error {
	bound, err := w.bind(queries)
	if err != nil {
		return err
	}
	abs, err := opt.AbsoluteConstraints(bound, rel)
	if err != nil {
		return err
	}
	p, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: abs, MaxPace: maxPace, Workers: 1})
	if err != nil {
		return err
	}
	job := p.Jobs[0] // a shared approach plans one job
	w.bound, w.abs, w.graph, w.paces = bound, abs, job.Graph, job.Paces
	ev, err := job.Model.Evaluate(job.Paces)
	if err != nil {
		return err
	}
	w.modeled = ev.SubTotal
	w.data = tpch.GenerateWithUpdates(w.sf, seed, updateFrac)
	if w.windows < w.fullWindows {
		for name, ts := range w.data {
			w.data[name] = ts[:len(ts)*w.windows/w.fullWindows]
		}
	}
	return nil
}

// observers are the scheduler's optional observation surfaces.
type observers struct {
	profile *profile.Profiler
	metrics *metrics.Registry
	events  *eventlog.Log
	status  *sched.StatusBoard
}

// schedRun is one drive of the schedule.
type schedRun struct {
	outcome
	tickUs   []float64 // per Tick, microseconds
	firings  int
	lagMaxMs float64
	snap     metrics.Snapshot
}

// drive runs the planned schedule to the end on the given clock. Each Tick
// is timed; with a recorder every window is one sched span, and the firing
// time the profiler measured inside it is attributed to exec.
func (w *schedUpdates) drive(rec *recorder, clock sched.Clock, obs observers) (*schedRun, error) {
	late := w.window / lateAfter
	deadlines := make([]time.Duration, w.graph.Plan.NumQueries())
	for q := range deadlines {
		deadlines[q] = late
	}
	s, err := sched.New(w.graph, w.paces, sched.Slices{Data: w.data, N: w.windows}, sched.Config{
		Window: w.window, Windows: w.windows, Clock: clock, WorkRate: 0, Workers: 1,
		Deadlines: deadlines, DisableDegradation: true,
		Profile: obs.profile, Metrics: obs.metrics, Events: obs.events, Status: obs.status,
	})
	if err != nil {
		return nil, err
	}
	w.last = s
	run := &schedRun{}
	more := true
	for win := 0; more; win++ {
		rec.setJob(win)
		rec.do("sched", fmt.Sprintf("window %d: Tick until closed", win), func() {
			for more && err == nil && len(s.Result().Windows) == win {
				t0 := time.Now()
				more, err = s.Tick()
				run.tickUs = append(run.tickUs, float64(time.Since(t0))/float64(time.Microsecond))
			}
			if rec != nil && obs.profile != nil {
				var wall int64
				for _, sm := range obs.profile.Samples() {
					if sm.Window == win {
						wall += sm.WallNS
					}
				}
				rec.attribute("exec", "firings (profiler wall-ns)", time.Duration(wall))
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rec.setJob(-1)
	res := s.Result()
	run.totalWork = res.TotalWork
	run.snap = s.Snapshot()
	for i, ws := range res.Windows {
		run.firings += ws.Executions
		run.lagMaxMs = math.Max(run.lagMaxMs, ms(ws.MaxLag))
		// Every query's final execution is in the window's last firing
		// group, so one completion instant serves the window: one latency
		// sample per window, one operation per (window, query).
		worst := ws.QuerySlack[0]
		for q, slack := range ws.QuerySlack {
			run.attempted++
			if slack < worst {
				worst = slack
			}
			switch {
			case slack < 0:
				run.fail("window %d query %d: results final %v after the trigger, limit %v", i, q, late-slack, late)
			case i == len(res.Windows)-1 && !sameRows(s.Results(q), w.ref[q]):
				run.fail("query %d differs from its reference after the last window", q)
			}
		}
		run.opMs = append(run.opMs, ms(late-worst))
	}
	return run, nil
}

func (w *schedUpdates) run(rec *recorder, lay layers) (*outcome, error) {
	var run *schedRun
	var err error
	switch {
	case !w.reduced:
		run, err = w.drive(nil, sched.RealClock{}, observers{})
	case rec == nil:
		run, err = w.drive(nil, sched.NewVirtualClock(time.Unix(0, 0)), observers{})
	default:
		prof := profile.New(profile.Config{
			Subplans: len(w.graph.Subplans), Modeled: w.modeled,
			Capacity: len(w.graph.Subplans) * w.windows,
		})
		run, err = w.drive(rec, sched.NewVirtualClock(time.Unix(0, 0)), observers{profile: prof})
		if err == nil {
			w.layerCounts(lay, run, prof)
		}
	}
	if err != nil {
		return nil, err
	}
	out := run.outcome
	out.add(w.gate)
	return &out, nil
}

// layerCounts reads what the scheduler exports after a profiled run. Its
// executor is private, so rows come from the stream the benchmark fed it and
// execution time from the profiler.
func (w *schedUpdates) layerCounts(lay layers, run *schedRun, prof *profile.Profiler) {
	var tick, wallNS float64
	for _, us := range run.tickUs {
		tick += us
	}
	for _, sm := range prof.Samples() {
		wallNS += float64(sm.WallNS)
	}
	lay.set("sched.firings", float64(run.firings))
	lay.set("sched.tick_us_p50", median(run.tickUs))
	lay.set("sched.self_frac", 1-ratio(wallNS/1000, tick))
	lay.add("exec.run_ms", wallNS/1e6)
	lay.add("exec.firings", float64(run.firings))
	scanned := map[string]bool{}
	for _, s := range w.graph.Subplans {
		for _, o := range s.Scans() {
			scanned[o.Table.Name] = true
		}
	}
	for name := range scanned {
		for _, t := range w.data[name] {
			lay.add("exec.rows_in", 1)
			if t.Sign == delta.Delete {
				lay.add("exec.deletes", 1)
			}
		}
	}
	for q := range w.ref {
		lay.add("exec.rows_out", float64(len(w.ref[q])))
	}
	lay.settle("exec.rows_out", 1) // the rows standing after the last window, not a per-window mean
	c := run.snap.Counters
	lay.add("exec.arr_built", float64(c["exec.arrangements.built"]))
	lay.add("exec.arr_shared_attaches", float64(c["exec.arrangements.shared_attaches"]))
	lay.add("exec.reuse_skipped", float64(c["exec.reuse.skipped"]))
}

// probes: the same reduced schedule on the wall clock (how late the
// generator ran, the worst trigger latency), then on the virtual clock with
// every observer attached and with none.
func (w *schedUpdates) probes(rec *recorder, lay layers) error {
	if err := optimizerProbes(rec, lay, w.bound, w.abs); err != nil {
		return err
	}
	real, err := w.drive(nil, sched.RealClock{}, observers{})
	if err != nil {
		return err
	}
	lay.set("sched.start_lag_ms_max", real.lagMaxMs)
	lay.set("sched.trigger_latency_ms_max", maxOf(real.opMs))

	// Three interleaved pairs, medians: one pair is within the box's noise.
	cpuOf := func(obs observers) (float64, error) {
		runtime.GC() // neither side collects the other's garbage
		before := snapshot()
		_, err := w.drive(nil, sched.NewVirtualClock(time.Unix(0, 0)), obs)
		return snapshot().cpu - before.cpu, err
	}
	var none, all []float64
	for i := 0; i < 3; i++ {
		c, err := cpuOf(observers{})
		if err != nil {
			return err
		}
		none = append(none, c)
		c, err = cpuOf(observers{
			profile: profile.New(profile.Config{Subplans: len(w.graph.Subplans), Modeled: w.modeled}),
			metrics: metrics.NewRegistry(),
			events:  eventlog.New(io.Discard, 0),
			status:  &sched.StatusBoard{},
		})
		if err != nil {
			return err
		}
		all = append(all, c)
	}
	lay.set("sched.observer_overhead_frac", ratio(median(all), median(none))-1)
	return nil
}
