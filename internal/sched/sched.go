// Package sched is the wall-clock scheduler runtime: it takes an optimized
// shared plan (a subplan graph plus a pace vector) and actually drives the
// incremental executions against trigger windows — the layer the paper's
// optimizer assumes but its prototype delegates to Spark job scheduling.
//
// Each trigger window spans a fixed clock duration. A subplan with pace p
// fires p times per window, the j-th firing due when j/p of the window has
// elapsed and j/p of the window's data has arrived; the final firing of
// every subplan lands exactly at the trigger point (window end). The
// scheduler tracks, per query and window, the deadline slack: the query's
// latency goal minus the time its final executions actually completed after
// the trigger point. Execution cost is charged against an injectable Clock —
// the real monotonic clock in production, a deterministic VirtualClock in
// tests — with Config.WorkRate translating the engine's work units into
// clock time, so overload (eager paces whose executions outrun the window)
// is observable and reproducible.
//
// When a window overloads (a missed deadline, or firings starting later than
// Config.LagThreshold after their due times), the degradation policy
// coarsens paces toward batch: it halves the pace of the subplan whose
// eager (pre-trigger) executions consumed the most window time — the
// highest spend per unit of slack bought, since under overload it is the
// per-execution fixed costs of eagerness that starve the trigger-point
// executions — and clamps the subplan's ancestors so no parent out-paces a
// child. Every decision is recorded in the Result and in the metrics
// registry.
package sched

import (
	"fmt"
	"runtime"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
	"ishare/internal/profile"
	"ishare/internal/trace"
	"ishare/internal/value"
)

// Config parameterizes a scheduler run.
type Config struct {
	// Window is the trigger window length (required, positive).
	Window time.Duration
	// Windows is how many consecutive windows to drive (required, ≥ 1).
	Windows int
	// Clock injects the time source; nil selects RealClock.
	Clock Clock
	// WorkRate models execution speed as work units per clock second:
	// an incremental execution reporting work w occupies w/WorkRate of
	// clock time. On a VirtualClock this is what makes executions take
	// time at all; on a RealClock the modeled duration is slept off, so
	// a simulation driven on real time behaves identically. 0 disables
	// modeled charging (only measured clock time counts).
	WorkRate float64
	// Deadlines is each query's latency goal: the clock duration after
	// the trigger point by which the query's final executions must have
	// completed. Length must equal the graph's query count.
	Deadlines []time.Duration
	// Workers bounds concurrent subplan execution within a dependency
	// wave of firings due at the same instant: 1 (and the zero value) is
	// fully sequential, n > 1 fans out on up to n goroutines, and any
	// negative value selects GOMAXPROCS (resolved once, in New). Schedules,
	// work accounting and metrics are byte-identical at any setting — clock
	// time is charged in canonical sequential order — only real wall time
	// changes.
	Workers int
	// DisableDegradation turns the overload policy off: paces then stay
	// fixed for the whole run no matter how many deadlines miss.
	DisableDegradation bool
	// LagThreshold is the start-lag beyond which a window counts as
	// overloaded even when every deadline was met; 0 defaults to
	// Window/10.
	LagThreshold time.Duration
	// Metrics receives the scheduler's counters and histograms; nil
	// allocates a private registry, readable via Scheduler.Snapshot.
	Metrics *metrics.Registry
	// Trace records every firing into Result.Trace — the byte-level
	// schedule the determinism tests compare.
	Trace bool
	// Tracer optionally receives the run's spans: per-firing execution
	// spans on per-subplan tracks, a window span plus deadline-settlement
	// instants on the control track (tid 0), and degradation decisions.
	// Span offsets come from the canonical sequential accounting loop, so
	// exports are byte-identical at any Workers setting.
	Tracer *trace.Tracer
	// TraceName names the tracer process for this run ("sched" when
	// empty) — one process per scheduler run gives one Perfetto track
	// group per job.
	TraceName string
	// Profile optionally collects per-subplan per-window execution
	// profiles {modeled Work, measured wall-ns, firings, batch counts}
	// and maintains each subplan's observed/modeled drift EWMA.
	// Observations happen in the canonical accounting loop and drift is a
	// pure function of deterministic Work counts, so profiles and alerts
	// are identical at any Workers setting; only the wall-ns column is
	// nondeterministic. nil disables profiling (one pointer check per
	// firing, no allocations).
	Profile *profile.Profiler
	// Events optionally receives the run's structured events — window
	// closes, degradation decisions, drift alerts, arrangement lifecycle,
	// grafts — timestamped with clock offsets from the run epoch. Emitted
	// from the canonical accounting path only, so a VirtualClock run
	// renders byte-identical JSONL at any Workers setting. nil disables.
	Events *eventlog.Log
	// Status optionally receives a live status snapshot at every window
	// close (pace vector, per-query slack, per-subplan drift table,
	// arrangement stats) for StatusHandler's statusz endpoint. nil
	// disables.
	Status *StatusBoard
	// Recalibrate optionally closes the cost loop: when drift alerts
	// persist for Persistence consecutive windows, the scheduler folds the
	// observed drift back into the cost model and re-searches the pace
	// vector (warm-started from the live memo), swapping it at the window
	// boundary. Requires Profile. nil disables. A recalibration preempts
	// degradation in the window that triggers it — retuning the model
	// subsumes the blunt pace-halving response.
	Recalibrate *RecalibratePolicy
}

// FiringRecord traces one incremental execution (recorded when Config.Trace
// is set). All offsets are measured from the run epoch (the clock's instant
// when the scheduler was created).
type FiringRecord struct {
	Window  int           `json:"window"`
	Subplan int           `json:"subplan"`
	Index   int           `json:"index"`
	Pace    int           `json:"pace"`
	Due     time.Duration `json:"due"`
	Start   time.Duration `json:"start"`
	Finish  time.Duration `json:"finish"`
	Work    int64         `json:"work"`
}

// WindowStats summarizes one trigger window.
type WindowStats struct {
	Window int `json:"window"`
	// Paces is the pace vector in force during the window.
	Paces []int `json:"paces"`
	// Executions and Work count the window's incremental executions and
	// their summed work units.
	Executions int   `json:"executions"`
	Work       int64 `json:"work"`
	// MaxLag is the worst start-lag of any firing in the window.
	MaxLag time.Duration `json:"max_lag"`
	// QuerySlack is each query's deadline slack: goal minus actual
	// completion relative to the trigger point. Negative means missed.
	QuerySlack []time.Duration `json:"query_slack"`
	// Met and Missed count queries by deadline outcome.
	Met    int `json:"met"`
	Missed int `json:"missed"`
	// Overloaded marks windows that triggered the degradation check.
	Overloaded bool `json:"overloaded"`
	// Degraded is the degradation decision taken after this window, if
	// any.
	Degraded *Decision `json:"degraded,omitempty"`
	// Recalibrated is the closed-loop recalibration performed after this
	// window, if any.
	Recalibrated *Recalibration `json:"recalibrated,omitempty"`
}

// Result summarizes a whole scheduler run.
type Result struct {
	Windows        []WindowStats   `json:"windows"`
	Decisions      []Decision      `json:"decisions"`
	Recalibrations []Recalibration `json:"recalibrations,omitempty"`
	FinalPaces     []int           `json:"final_paces"`
	TotalWork      int64           `json:"total_work"`
	Met            int             `json:"met"`
	Missed         int             `json:"missed"`
	Trace          []FiringRecord  `json:"trace,omitempty"`
}

// Scheduler drives one plan's incremental executions against the clock. Use
// New, then either Run for the whole configured horizon or Tick to step one
// firing group at a time.
type Scheduler struct {
	cfg     Config
	graph   *mqo.Graph
	runner  *exec.Runner
	src     Source
	clock   Clock
	reg     *metrics.Registry
	paces   []int
	workers int // Config.Workers resolved to n ≥ 1

	epoch    time.Time
	window   int
	firings  []exec.Firing
	pos      int
	winStart time.Time
	finish   []time.Time     // per-subplan completion instant, this window
	spent    []time.Duration // per-subplan pre-trigger execution time, this window
	maxLag   time.Duration
	winWork  int64
	winExecs int

	tr        *trace.Tracer
	prof      *profile.Profiler
	ev        *eventlog.Log
	status    *StatusBoard
	tracePid  int
	traceBase time.Duration      // scheduler epoch's offset on the tracer timeline
	subExecs  []*metrics.Counter // per-subplan execution counters
	subWork   []*metrics.Counter // per-subplan work counters
	// The run-wide instruments the per-group and per-window loops feed,
	// resolved once like the per-subplan counters above.
	execs     *metrics.Counter
	workTotal *metrics.Counter
	lagHist   *metrics.Histogram
	slackHist *metrics.Histogram
	// Per-window accumulators for the counters above: the canonical
	// accounting loop is single-threaded, so plain increments here and one
	// atomic flush per window keep the per-firing hot path free of atomics.
	winSubExecs []int64
	winSubWork  []int64
	// lastArr is the arrangement registry's lifetime counters at the last
	// flush, so window metrics carry per-window deltas.
	lastArr exec.ArrangeStats
	// lastReuse mirrors lastArr for the runner's reuse counters.
	lastReuse exec.ReuseStats
	// streak counts each subplan's consecutive alert windows for the
	// recalibration trigger; recalCooldown disarms it after a firing.
	streak        []int
	recalCooldown int

	res  Result
	done bool
}

// flushArrangeStats publishes the runner's arrangement accounting: lifetime
// counters as deltas since the last flush (so each window's metrics describe
// that window), called at window close and after a graft. It returns the
// deltas so callers can put them on the event log.
func (s *Scheduler) flushArrangeStats() exec.ArrangeStats {
	st := s.runner.ArrangeStats()
	d := exec.ArrangeStats{
		Built:          st.Built - s.lastArr.Built,
		SharedAttaches: st.SharedAttaches - s.lastArr.SharedAttaches,
		Freed:          st.Freed - s.lastArr.Freed,
	}
	s.reg.Counter("exec.arrangements.built").Add(d.Built)
	s.reg.Counter("exec.arrangements.shared_attaches").Add(d.SharedAttaches)
	s.reg.Counter("exec.arrangements.freed").Add(d.Freed)
	s.lastArr = st
	return d
}

// flushReuseStats publishes the runner's reuse accounting as per-window
// deltas, mirroring flushArrangeStats. The skippable column (clean-cone
// firings, counted whether or not the knob is on) is deterministic; skipped
// is the physical count and depends on the knob.
func (s *Scheduler) flushReuseStats() exec.ReuseStats {
	st := s.runner.ReuseStats()
	d := exec.ReuseStats{
		Skippable: st.Skippable - s.lastReuse.Skippable,
		Skipped:   st.Skipped - s.lastReuse.Skipped,
	}
	if d.Skippable > 0 {
		s.reg.Counter("exec.reuse.skippable").Add(d.Skippable)
	}
	if d.Skipped > 0 {
		s.reg.Counter("exec.reuse.skipped").Add(d.Skipped)
	}
	s.lastReuse = st
	return d
}

// New builds a scheduler over the graph with the given starting pace vector
// (one pace ≥ 1 per subplan, typically the optimizer's output) and window
// data source.
func New(g *mqo.Graph, paces []int, src Source, cfg Config) (*Scheduler, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("sched: window %v is not positive", cfg.Window)
	}
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("sched: %d windows", cfg.Windows)
	}
	if len(paces) != len(g.Subplans) {
		return nil, fmt.Errorf("sched: %d paces for %d subplans", len(paces), len(g.Subplans))
	}
	for i, p := range paces {
		if p < 1 {
			return nil, fmt.Errorf("sched: subplan %d has pace %d < 1", i, p)
		}
	}
	if len(cfg.Deadlines) != g.Plan.NumQueries() {
		return nil, fmt.Errorf("sched: %d deadlines for %d queries", len(cfg.Deadlines), g.Plan.NumQueries())
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.LagThreshold == 0 {
		cfg.LagThreshold = cfg.Window / 10
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if src == nil {
		return nil, fmt.Errorf("sched: nil source")
	}
	runner, err := exec.NewDeltaRunner(g, exec.DeltaDataset{})
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:    cfg,
		graph:  g,
		runner: runner,
		src:    src,
		clock:  cfg.Clock,
		reg:    cfg.Metrics,
		paces:  append([]int(nil), paces...),
		prof:   cfg.Profile,
		ev:     cfg.Events,
		status: cfg.Status,
	}
	s.workers = max(cfg.Workers, 1)
	if cfg.Workers < 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	// Instruments are resolved once up front so the per-firing hot loop pays
	// atomic adds, not a registry lookup plus key formatting.
	s.execs = s.reg.Counter("sched.executions")
	s.workTotal = s.reg.Counter("sched.work_total")
	s.lagHist = s.reg.Histogram("sched.exec_lag_ms", 1, 5, 10, 50, 100, 500, 1000, 5000)
	s.slackHist = s.reg.Histogram("sched.query_slack_ms", -5000, -1000, -100, -10, 0, 10, 100, 1000, 5000)
	s.epoch = s.clock.Now()
	if tr := cfg.Tracer; tr != nil {
		s.tr = tr
		name := cfg.TraceName
		if name == "" {
			name = "sched"
		}
		s.tracePid = tr.Process(name)
		s.traceBase = tr.Since()
		tr.Thread(s.tracePid, 0, "windows")
		runner.Trace = tr
	}
	s.sizeFor(g)
	return s, nil
}

// Run drives the configured number of windows to completion.
func (s *Scheduler) Run() (*Result, error) {
	for {
		more, err := s.Tick()
		if err != nil {
			return nil, err
		}
		if !more {
			return s.Result(), nil
		}
	}
}

// Tick executes the next firing group (every firing due at the same
// instant); when the group closes a window it also settles the window's
// deadlines and applies the degradation policy. It reports whether any work
// remains. A panicking operator surfaces as an error naming the subplan; the
// run cannot continue past it.
func (s *Scheduler) Tick() (bool, error) {
	if s.done {
		return false, nil
	}
	if s.firings == nil {
		if err := s.openWindow(); err != nil {
			return false, err
		}
	}
	end := exec.GroupEnd(s.firings, s.pos)
	if err := s.runGroup(s.firings[s.pos:end]); err != nil {
		return false, err
	}
	s.pos = end
	if s.pos >= len(s.firings) {
		s.closeWindow()
		s.firings, s.pos = nil, 0
		s.window++
		if s.window >= s.cfg.Windows {
			s.res.FinalPaces = append([]int(nil), s.paces...)
			s.done = true
			s.runner.CountArrangements()
			return false, nil
		}
	}
	return true, nil
}

// Result returns the run summary accumulated so far (complete after Run, or
// after Tick reports no more work).
func (s *Scheduler) Result() *Result { return &s.res }

// Results returns query q's materialized result rows at the current point
// of the run.
func (s *Scheduler) Results(q int) []value.Row { return s.runner.Results(q) }

// Snapshot returns the scheduler's metrics registry snapshot.
func (s *Scheduler) Snapshot() metrics.Snapshot { return s.reg.Snapshot() }

// Paces returns the pace vector currently in force (degradation may have
// coarsened the starting vector).
func (s *Scheduler) Paces() []int { return append([]int(nil), s.paces...) }

func (s *Scheduler) openWindow() error {
	fs, err := exec.Schedule(s.paces)
	if err != nil {
		return err
	}
	s.firings = fs
	s.pos = 0
	s.winStart = s.epoch.Add(time.Duration(s.window) * s.cfg.Window)
	s.runner.StartWindow(s.src.WindowData(s.window))
	winEnd := s.winStart.Add(s.cfg.Window)
	for i := range s.finish {
		// A subplan that somehow never fires completes at the trigger
		// point; every pace ≥ 1 fires at least once, overwriting this.
		s.finish[i] = winEnd
		s.spent[i] = 0
	}
	s.maxLag = 0
	s.winWork = 0
	s.winExecs = 0
	return nil
}

// runGroup executes every firing due at one instant through the runner's
// group executor (dependency waves on up to s.workers goroutines), then
// charges clock time in canonical order — firing order within the group — so
// schedules and metrics are identical at any worker count.
func (s *Scheduler) runGroup(group []exec.Firing) error {
	due := s.winStart.Add(group[0].Offset(s.cfg.Window))
	s.clock.WaitUntil(due)
	groupStart := s.clock.Now()
	if lag := groupStart.Sub(due); lag > s.maxLag {
		s.maxLag = lag
	}
	s.runner.ArriveWindow(group[0].Index, group[0].Pace)

	// Measured wall-ns is the profiler's nondeterministic rider column;
	// without a profiler the clock reads are skipped entirely.
	var walls []int64
	if s.prof != nil {
		walls = make([]int64, len(group))
	}
	works, err := s.runner.RunGroup(group, s.workers, "sched", walls)
	if err != nil {
		return fmt.Errorf("sched: window %d: %w", s.window, err)
	}

	t := groupStart
	for i, f := range group {
		d := s.workDuration(works[i])
		start := t
		t = t.Add(d)
		s.finish[f.Subplan] = t
		if !f.Final() {
			s.spent[f.Subplan] += d
		}
		w := works[i].Total()
		if s.prof != nil {
			// Attributed here — the canonical loop — not on the workers, so
			// the profile's deterministic columns are worker-count-invariant.
			// A group fires each subplan at most once, so LastBatches still
			// describes this firing.
			s.prof.Observe(f.Subplan, w, walls[i], s.runner.Execs[f.Subplan].LastBatches())
		}
		s.winWork += w
		s.winExecs++
		s.res.TotalWork += w
		s.execs.Inc()
		s.workTotal.Add(w)
		s.winSubExecs[f.Subplan]++
		s.winSubWork[f.Subplan] += w
		s.lagHist.Observe(float64(start.Sub(due)) / float64(time.Millisecond))
		if s.tr != nil {
			// Offsets come from this canonical loop, not the workers'
			// clocks, so the exported trace is worker-count-invariant; the
			// shared exec counters are fed here too, keeping the concurrent
			// execution path free of tracer work.
			s.runner.CountWork(works[i])
			s.tr.Span(s.tracePid, 1+f.Subplan, "sched",
				fmt.Sprintf("fire %d/%d", f.Index, f.Pace),
				s.traceBase+start.Sub(s.epoch), s.traceBase+t.Sub(s.epoch),
				trace.Arg{Key: "window", Value: s.window},
				trace.Arg{Key: "due", Value: due.Sub(s.epoch)},
				trace.Arg{Key: "work", Value: w})
		}
		if s.cfg.Trace {
			s.res.Trace = append(s.res.Trace, FiringRecord{
				Window:  s.window,
				Subplan: f.Subplan,
				Index:   f.Index,
				Pace:    f.Pace,
				Due:     due.Sub(s.epoch),
				Start:   start.Sub(s.epoch),
				Finish:  t.Sub(s.epoch),
				Work:    w,
			})
		}
	}
	s.clock.WaitUntil(t)
	if s.cfg.WorkRate <= 0 {
		// Pure measured mode: completion is whatever the clock says after
		// the group actually ran.
		now := s.clock.Now()
		for _, f := range group {
			s.finish[f.Subplan] = now
		}
	}
	return nil
}

func (s *Scheduler) workDuration(w exec.Work) time.Duration {
	if s.cfg.WorkRate <= 0 {
		return 0
	}
	return time.Duration(float64(w.Total()) / s.cfg.WorkRate * float64(time.Second))
}

func (s *Scheduler) closeWindow() {
	for i := range s.winSubExecs {
		if n := s.winSubExecs[i]; n > 0 {
			s.subExecs[i].Add(n)
			s.winSubExecs[i] = 0
		}
		if w := s.winSubWork[i]; w > 0 {
			s.subWork[i].Add(w)
			s.winSubWork[i] = 0
		}
	}
	winEnd := s.winStart.Add(s.cfg.Window)
	ws := WindowStats{
		Window:     s.window,
		Paces:      append([]int(nil), s.paces...),
		Executions: s.winExecs,
		Work:       s.winWork,
		MaxLag:     s.maxLag,
	}
	nq := s.graph.Plan.NumQueries()
	ws.QuerySlack = make([]time.Duration, nq)
	for q := 0; q < nq; q++ {
		completion := winEnd
		for _, sub := range s.graph.QuerySubplans(q) {
			if s.finish[sub.ID].After(completion) {
				completion = s.finish[sub.ID]
			}
		}
		slack := winEnd.Add(s.cfg.Deadlines[q]).Sub(completion)
		ws.QuerySlack[q] = slack
		if slack >= 0 {
			ws.Met++
		} else {
			ws.Missed++
		}
		s.slackHist.Observe(float64(slack) / float64(time.Millisecond))
		if s.tr != nil {
			s.tr.Instant(s.tracePid, 0, "deadline", fmt.Sprintf("query %d", q),
				s.traceBase+completion.Sub(s.epoch),
				trace.Arg{Key: "window", Value: s.window},
				trace.Arg{Key: "slack", Value: slack},
				trace.Arg{Key: "met", Value: slack >= 0})
		}
	}
	s.res.Met += ws.Met
	s.res.Missed += ws.Missed
	s.reg.Counter("sched.windows").Inc()
	s.reg.Counter("sched.deadline_met").Add(int64(ws.Met))
	s.reg.Counter("sched.deadline_missed").Add(int64(ws.Missed))
	ws.Overloaded = ws.Missed > 0 || s.maxLag > s.cfg.LagThreshold
	// Drift settles before the degradation check so a recalibration —
	// which retunes the model the paces came from — can preempt the blunt
	// pace-halving response in the window that triggers it.
	_, alerts := s.prof.FlushWindow(s.window)
	if rec := s.maybeRecalibrate(alerts); rec != nil {
		ws.Recalibrated = rec
	}
	if ws.Overloaded {
		s.reg.Counter("sched.overloaded_windows").Inc()
		if !s.cfg.DisableDegradation && ws.Recalibrated == nil {
			if d := s.degrade(ws.QuerySlack); d != nil {
				d.Window = s.window
				ws.Degraded = d
				s.res.Decisions = append(s.res.Decisions, *d)
				s.reg.Counter("sched.degrade_total").Inc()
				s.reg.Counter(fmt.Sprintf("sched.degrade.subplan.%d", d.Subplan)).Inc()
				if s.tr != nil {
					s.tr.DecideAt(s.tracePid, 0, s.traceBase+winEnd.Sub(s.epoch), trace.Decision{
						Phase: "sched.degrade", Step: len(s.res.Decisions),
						Subplan: d.Subplan, Action: "halve_pace",
						Score: float64(d.Spent) / float64(time.Millisecond), Accepted: true,
						Detail: fmt.Sprintf("window %d overloaded: pace %d -> %d, %d ancestors clamped",
							s.window, d.OldPace, d.NewPace, len(d.Clamped)),
					})
				}
			}
		}
	}
	if s.tr != nil {
		s.tr.Span(s.tracePid, 0, "sched", fmt.Sprintf("window %d", s.window),
			s.traceBase+s.winStart.Sub(s.epoch), s.traceBase+winEnd.Sub(s.epoch),
			trace.Arg{Key: "executions", Value: s.winExecs},
			trace.Arg{Key: "work", Value: s.winWork},
			trace.Arg{Key: "met", Value: ws.Met},
			trace.Arg{Key: "missed", Value: ws.Missed},
			trace.Arg{Key: "max_lag", Value: s.maxLag},
			trace.Arg{Key: "overloaded", Value: ws.Overloaded})
	}
	// Always-on gauges: the live complement of the counters above. Set in
	// profiled and unprofiled runs alike, so enabling observability never
	// changes a metrics snapshot (the observer-effect regression test pins
	// this).
	s.reg.Gauge("sched.window").Set(float64(s.window))
	s.reg.Gauge("sched.live_queries").Set(float64(nq))
	s.reg.Gauge("sched.last_max_lag_ms").Set(float64(s.maxLag) / float64(time.Millisecond))
	atNS := winEnd.Sub(s.epoch).Nanoseconds()
	if s.ev.Enabled() {
		for _, a := range alerts {
			s.ev.Emit("drift.alert", atNS, a.Window, a.Subplan, -1, map[string]interface{}{
				"drift": a.Drift, "modeled": a.Modeled, "work": a.Work,
			})
		}
		if d := ws.Degraded; d != nil {
			s.ev.Emit("sched.degrade", atNS, s.window, d.Subplan, -1, map[string]interface{}{
				"old_pace": d.OldPace, "new_pace": d.NewPace,
				"clamped": len(d.Clamped), "spent_ns": int64(d.Spent),
			})
		}
	}
	if ws.Recalibrated != nil {
		s.emitRecalibration(ws.Recalibrated, atNS, winEnd)
	}
	arr := s.flushArrangeStats()
	reuse := s.flushReuseStats()
	if s.ev.Enabled() {
		if arr.Built != 0 || arr.SharedAttaches != 0 || arr.Freed != 0 {
			s.ev.Emit("arrangements", atNS, s.window, -1, -1, map[string]interface{}{
				"built": arr.Built, "shared_attaches": arr.SharedAttaches, "freed": arr.Freed,
			})
		}
		if reuse.Skippable > 0 {
			// Only the deterministic skippable count goes on the log: the
			// physical skipped count depends on exec.Options.NoReuse, and
			// the event log must stay byte-identical with reuse on or off.
			s.ev.Emit("reuse.skip", atNS, s.window, -1, -1, map[string]interface{}{
				"skippable": reuse.Skippable,
			})
		}
		s.ev.Emit("window.close", atNS, s.window, -1, -1, map[string]interface{}{
			"executions": s.winExecs, "work": s.winWork,
			"met": ws.Met, "missed": ws.Missed,
			"max_lag_ns": int64(s.maxLag), "overloaded": ws.Overloaded,
		})
	}
	s.res.Windows = append(s.res.Windows, ws)
	if s.status != nil {
		s.status.Publish(s.buildStatus(ws))
	}
}
