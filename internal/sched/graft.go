package sched

import (
	"fmt"
	"time"

	"ishare/internal/exec"
	"ishare/internal/mqo"
)

// Graft swaps the scheduler onto a new plan revision between windows: the
// runner transplants or replays operator state (exec.Runner.Graft), then the
// scheduler re-derives everything it keeps per subplan or per query from the
// new graph; the runner refreshes its own depth vector. Prior
// windows' Result entries and flushed metrics are untouched: closeWindow has
// already settled them, so a run with grafts produces a byte-identical prefix
// to the same run without.
//
// Graft is only legal between windows (after Tick closes one and before it
// opens the next, or before the first Tick) and before the run completes.
// The pace vector and deadlines must fit the new graph, exactly as New
// requires. A failed graft — a panic while the runner replays a rebuilt
// subplan included — returns its error and changes nothing: the runner keeps
// its old executors (exec.Runner.Graft), and the run goes on under the old
// plan, paces and deadlines. After a failed Tick, Graft returns an error
// wrapping the runner's first failure.
func (s *Scheduler) Graft(g *mqo.Graph, paces []int, deadlines []time.Duration) (*exec.GraftStats, error) {
	if err := s.runner.Err(); err != nil {
		return nil, fmt.Errorf("sched: graft after a failed tick: %w", err)
	}
	if s.done {
		return nil, fmt.Errorf("sched: graft after run completed")
	}
	if s.firings != nil {
		return nil, fmt.Errorf("sched: graft inside window %d (between-windows only)", s.window)
	}
	if err := checkPlan(g, paces, deadlines); err != nil {
		return nil, fmt.Errorf("sched: graft: %w", err)
	}
	stats, err := s.runner.Graft(g, exec.GraftOptions{})
	if err != nil {
		return nil, err
	}
	// A graft renumbers subplans: the profiler carries each adopted
	// subplan's drift EWMA to its new id and starts rebuilt ones
	// unobserved; the baseline is cleared until the caller supplies one for
	// the new revision (profile.SetModeled).
	s.cfg.Profile.Graft(len(g.Subplans), nil, stats.AdoptedFrom)
	s.paces = append([]int(nil), paces...)
	s.cfg.Deadlines = append([]time.Duration(nil), deadlines...)
	// The recalibration trigger restarts: alert streaks describe the old
	// graph's subplans, and the profiler's baseline is cleared until the
	// caller rebases. The model stays, so the next recalibration re-plans
	// across the revision. Constraints that no longer fit the new query
	// count disable the policy.
	s.streak, s.recalCooldown = make([]int, len(g.Subplans)), 0
	if rp := s.cfg.Recalibrate; rp != nil && len(rp.Constraints) != g.Plan.NumQueries() {
		s.cfg.Recalibrate = nil
	}
	s.reportGraft(stats)
	return stats, nil
}
