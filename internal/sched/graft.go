package sched

import (
	"fmt"
	"time"

	"ishare/internal/cost"
	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
)

// Graft swaps the scheduler onto a new plan revision between windows: the
// runner transplants or replays operator state (exec.Runner.Graft), then the
// scheduler re-derives everything it sizes per subplan or per query (sizeFor)
// from the new graph; the runner refreshes its own depth vector. Prior
// windows' Result entries and flushed metrics are untouched: closeWindow has
// already settled them, so a run with grafts produces a byte-identical prefix
// to the same run without.
//
// Graft is only legal between windows (after Tick closes one and before it
// opens the next, or before the first Tick) and before the run completes.
// The pace vector and deadlines must fit the new graph, exactly as New
// requires.
func (s *Scheduler) Graft(g *mqo.Graph, paces []int, deadlines []time.Duration) (*exec.GraftStats, error) {
	if s.done {
		return nil, fmt.Errorf("sched: graft after run completed")
	}
	if s.firings != nil {
		return nil, fmt.Errorf("sched: graft inside window %d (between-windows only)", s.window)
	}
	if len(paces) != len(g.Subplans) {
		return nil, fmt.Errorf("sched: graft: %d paces for %d subplans", len(paces), len(g.Subplans))
	}
	for i, p := range paces {
		if p < 1 {
			return nil, fmt.Errorf("sched: graft: subplan %d has pace %d < 1", i, p)
		}
	}
	if len(deadlines) != g.Plan.NumQueries() {
		return nil, fmt.Errorf("sched: graft: %d deadlines for %d queries", len(deadlines), g.Plan.NumQueries())
	}
	stats, err := s.runner.Graft(g, exec.GraftOptions{})
	if err != nil {
		return nil, err
	}
	arr := s.flushArrangeStats()
	// Graft keeps subplan ids slot-stable, so the profiler preserves the
	// drift EWMA of surviving ids; the baseline is cleared until the caller
	// supplies one for the new revision (profile.SetModeled).
	s.prof.Graft(len(g.Subplans), nil)
	if s.ev.Enabled() {
		atNS := (time.Duration(s.window) * s.cfg.Window).Nanoseconds()
		s.ev.Emit("graft", atNS, s.window, -1, -1, map[string]interface{}{
			"subplans": len(g.Subplans), "queries": g.Plan.NumQueries(),
			"adopted": stats.Adopted, "rebuilt": stats.Rebuilt,
			"replayed":            stats.Replayed,
			"arrangements_built":  arr.Built,
			"arrangements_shared": stats.ArrangementsShared,
			"arrangements_freed":  stats.ArrangementsFreed,
		})
	}
	s.graph = g
	s.paces = append([]int(nil), paces...)
	s.cfg.Deadlines = append([]time.Duration(nil), deadlines...)
	s.sizeFor(g)
	// The recalibration trigger restarts from scratch on the new revision:
	// alert streaks describe the old graph's subplans, and the policy's
	// model — if one is installed — was built over the old graph. A model
	// over the new graph starts uncalibrated (the profiler's baseline is
	// cleared too, so no alerts fire until the caller rebases); constraints
	// that no longer fit the new query count disable the policy entirely.
	s.recalCooldown = 0
	if rp := s.cfg.Recalibrate; rp != nil {
		if len(rp.Constraints) == g.Plan.NumQueries() {
			rp.Model = cost.NewModel(g)
		} else {
			s.cfg.Recalibrate = nil
		}
	}
	s.flushReuseStats()
	return stats, nil
}

// sizeFor (re)allocates what the scheduler keeps per subplan — this window's
// completion and spend, alert streaks, per-window accumulators, counters and
// tracer threads — for graph g: New's initial sizing and Graft's resize.
func (s *Scheduler) sizeFor(g *mqo.Graph) {
	n := len(g.Subplans)
	s.finish = make([]time.Time, n)
	s.spent = make([]time.Duration, n)
	s.streak = make([]int, n)
	s.winSubExecs = make([]int64, n)
	s.winSubWork = make([]int64, n)
	// Counters are registry-backed by name, so a subplan ID that exists in
	// both revisions keeps accumulating into the same counter.
	s.subExecs = make([]*metrics.Counter, n)
	s.subWork = make([]*metrics.Counter, n)
	for i := 0; i < n; i++ {
		s.subExecs[i] = s.reg.Counter(fmt.Sprintf("sched.subplan.%d.executions", i))
		s.subWork[i] = s.reg.Counter(fmt.Sprintf("sched.subplan.%d.work", i))
	}
	if s.tr != nil {
		for _, sub := range g.Subplans {
			s.tr.Thread(s.tracePid, 1+sub.ID, fmt.Sprintf("subplan %d", sub.ID))
		}
	}
}
