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
// When a window overloads (a missed deadline, or firings starting more than
// a tenth of a window after their due times), the degradation policy
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

	"ishare/internal/cost"
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
	// Metrics receives the scheduler's counters and histograms; nil
	// allocates a private registry, readable via Scheduler.Snapshot.
	Metrics *metrics.Registry
	// Tracer optionally receives the run's spans: per-firing execution
	// spans on per-subplan tracks, a window span plus deadline-settlement
	// instants on the control track (tid 0), and degradation decisions;
	// and the exec.* work counters and end-state exec.arr.* gauges.
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
}

// Scheduler drives one plan's incremental executions against the clock. Use
// New, then either Run for the whole configured horizon or Tick to step one
// firing group at a time.
type Scheduler struct {
	cfg     Config
	runner  *exec.Runner // owns the plan revision being run (Runner.Graph)
	src     Source
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
	fired    []firing // this window's executions in canonical order, for the reports
	// model is the cost model recalibration re-plans from; streak counts
	// each subplan's consecutive alert windows for its trigger, and
	// recalCooldown disarms it after a firing.
	model         *cost.Model
	streak        []int
	recalCooldown int

	// What the reports (report.go) resolve once and carry between occasions.
	tracePid           int
	traceBase          time.Duration // scheduler epoch's offset on the tracer timeline
	execs, workTotal   *metrics.Counter
	lagHist, slackHist *metrics.Histogram
	subExecs, subWork  []*metrics.Counter // per subplan
	lastArr            exec.ArrangeStats  // runner counters at the last report, so reports carry deltas
	lastReuse          exec.ReuseStats

	res  Result
	done bool
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
	if err := checkPlan(g, paces, cfg.Deadlines); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
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
	// No caller reaches the runner, so it keeps no Data mirror: the table
	// logs are the one record of arrivals.
	runner.Data = nil
	s := &Scheduler{
		cfg:    cfg,
		runner: runner,
		src:    src,
		paces:  append([]int(nil), paces...),
	}
	s.workers = max(cfg.Workers, 1)
	if cfg.Workers < 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Recalibrate != nil {
		s.model = cfg.Recalibrate.Model
	}
	s.streak = make([]int, len(g.Subplans))
	s.epoch = s.cfg.Clock.Now()
	s.reportStart()
	return s, nil
}

// checkPlan requires one pace ≥ 1 per subplan and one deadline per query.
func checkPlan(g *mqo.Graph, paces []int, deadlines []time.Duration) error {
	if len(paces) != len(g.Subplans) {
		return fmt.Errorf("%d paces for %d subplans", len(paces), len(g.Subplans))
	}
	for i, p := range paces {
		if p < 1 {
			return fmt.Errorf("subplan %d has pace %d < 1", i, p)
		}
	}
	if len(deadlines) != g.Plan.NumQueries() {
		return fmt.Errorf("%d deadlines for %d queries", len(deadlines), g.Plan.NumQueries())
	}
	return nil
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
// remains. A panicking operator surfaces as an error naming the window and
// the subplan, and the run cannot continue past it: the runner keeps that
// first failure (exec.Runner.RunGroup), so every later Tick, Run and Graft
// returns an error wrapping it and changes neither the Result nor the
// metrics.
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
func (s *Scheduler) Snapshot() metrics.Snapshot { return s.cfg.Metrics.Snapshot() }

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
	if n := len(s.runner.Graph.Subplans); len(s.finish) != n {
		s.finish, s.spent = make([]time.Time, n), make([]time.Duration, n)
	}
	for i := range s.finish {
		// A subplan that somehow never fires completes at the trigger
		// point; every pace ≥ 1 fires at least once, overwriting this.
		s.finish[i] = winEnd
		s.spent[i] = 0
	}
	s.maxLag = 0
	s.winWork = 0
	s.fired = s.fired[:0]
	return nil
}

// runGroup executes every firing due at one instant through the runner's
// group executor (dependency waves on up to s.workers goroutines), then
// charges clock time in canonical order — firing order within the group — so
// schedules and their records are identical at any worker count.
func (s *Scheduler) runGroup(group []exec.Firing) error {
	due := s.winStart.Add(group[0].Offset(s.cfg.Window))
	s.cfg.Clock.WaitUntil(due)
	groupStart := s.cfg.Clock.Now()
	if lag := groupStart.Sub(due); lag > s.maxLag {
		s.maxLag = lag
	}
	s.runner.ArriveWindow(group[0].Index, group[0].Pace)

	// Measured wall-ns is the profiler's nondeterministic rider column;
	// without a profiler the clock reads are skipped entirely.
	var walls []int64
	if s.cfg.Profile != nil {
		walls = make([]int64, len(group))
	}
	works, err := s.runner.RunGroup(group, s.workers, "sched", walls)
	if err != nil {
		return fmt.Errorf("sched: window %d: %w", s.window, err)
	}

	first := len(s.fired)
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
		if s.cfg.Profile != nil {
			// Attributed here — the canonical loop — not on the workers, so
			// the profile's deterministic columns are worker-count-invariant.
			// A group fires each subplan at most once, so LastBatches still
			// describes this firing.
			s.cfg.Profile.Observe(f.Subplan, w, walls[i], s.runner.Execs[f.Subplan].LastBatches())
		}
		s.winWork += w
		s.res.TotalWork += w
		s.fired = append(s.fired, firing{f, due.Sub(s.epoch), start.Sub(s.epoch), t.Sub(s.epoch), works[i]})
	}
	s.reportGroup(s.fired[first:])
	s.cfg.Clock.WaitUntil(t)
	if s.cfg.WorkRate <= 0 {
		// Pure measured mode: completion is whatever the clock says after
		// the group actually ran.
		now := s.cfg.Clock.Now()
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

// closeWindow settles the window's deadlines, then drift, recalibration and
// degradation, records the outcome in the Result and hands it to
// reportWindow.
func (s *Scheduler) closeWindow() {
	winEnd := s.winStart.Add(s.cfg.Window)
	ws := WindowStats{
		Window:     s.window,
		Paces:      append([]int(nil), s.paces...),
		Executions: len(s.fired),
		Work:       s.winWork,
		MaxLag:     s.maxLag,
	}
	nq := s.runner.Graph.Plan.NumQueries()
	ws.QuerySlack = make([]time.Duration, nq)
	for q := 0; q < nq; q++ {
		completion := winEnd
		for _, sub := range s.runner.Graph.QuerySubplans(q) {
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
	}
	s.res.Met += ws.Met
	s.res.Missed += ws.Missed
	// A start lag over a tenth of a window overloads it even when every
	// deadline was met.
	ws.Overloaded = ws.Missed > 0 || s.maxLag > s.cfg.Window/10
	// Drift settles before the degradation check so a recalibration —
	// which retunes the model the paces came from — can preempt the blunt
	// pace-halving response in the window that triggers it.
	_, alerts := s.cfg.Profile.FlushWindow(s.window)
	if ws.Recalibrated = s.maybeRecalibrate(alerts); ws.Recalibrated != nil {
		s.res.Recalibrations = append(s.res.Recalibrations, *ws.Recalibrated)
	} else if ws.Overloaded && !s.cfg.DisableDegradation {
		if ws.Degraded = s.degrade(ws.QuerySlack); ws.Degraded != nil {
			s.res.Decisions = append(s.res.Decisions, *ws.Degraded)
		}
	}
	s.res.Windows = append(s.res.Windows, ws)
	s.reportWindow(ws, alerts)
}
