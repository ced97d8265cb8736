package sched

import "time"

// Decision records one overload-degradation step: after an overloaded
// window, the scheduler halves the pace of the subplan whose eager
// (pre-trigger) executions spent the most window time, and clamps any
// ancestor paces down so no parent fires more often than its child (a
// parent's incremental execution is only useful once its inputs have
// advanced).
type Decision struct {
	// Window is the overloaded window the decision reacted to.
	Window int `json:"window"`
	// Subplan is the degraded subplan; its pace moved OldPace → NewPace.
	Subplan int `json:"subplan"`
	OldPace int `json:"old_pace"`
	NewPace int `json:"new_pace"`
	// Clamped lists ancestors whose paces were lowered to NewPace to keep
	// the vector monotone (parent pace ≤ child pace), in the order they
	// were clamped.
	Clamped []int `json:"clamped,omitempty"`
	// Spent is the clock time the victim's eager executions consumed in
	// the overloaded window — the evidence it was the right target.
	Spent time.Duration `json:"spent"`
	// MinSlack is the worst deadline slack among the victim's queries in
	// the overloaded window, for auditing how much headroom the decision
	// was trying to buy.
	MinSlack time.Duration `json:"min_slack"`
}

// degrade picks and applies one degradation step given the overloaded
// window's per-query slacks. It returns nil when every pace already sits at
// batch (nothing left to coarsen).
//
// The victim is the subplan with the largest pre-trigger execution time
// among those still above pace 1 — ties break toward the lower subplan id
// so the choice is deterministic. Halving its pace removes roughly half of
// that spend from future windows while the subplan's final (trigger-point)
// execution, the only one deadlines depend on directly, is preserved.
func (s *Scheduler) degrade(querySlack []time.Duration) *Decision {
	victim := -1
	for i, p := range s.paces {
		if p <= 1 {
			continue
		}
		if victim == -1 || s.spent[i] > s.spent[victim] {
			victim = i
		}
	}
	if victim == -1 {
		return nil
	}
	d := &Decision{
		Window:   s.window,
		Subplan:  victim,
		OldPace:  s.paces[victim],
		NewPace:  s.paces[victim] / 2,
		Spent:    s.spent[victim],
		MinSlack: s.minSlackOf(victim, querySlack),
	}
	if d.NewPace < 1 {
		d.NewPace = 1
	}
	s.paces[victim] = d.NewPace
	s.clampAncestors(victim, d.NewPace, d)
	return d
}

// clampAncestors lowers every transitive parent of sub whose pace exceeds
// np down to np, recording them in the decision. A parent visited twice
// already satisfies the bound the second time, so recursion terminates
// without a visited set.
func (s *Scheduler) clampAncestors(sub, np int, d *Decision) {
	for _, par := range s.runner.Graph.Subplans[sub].Parents {
		if s.paces[par.ID] > np {
			s.paces[par.ID] = np
			d.Clamped = append(d.Clamped, par.ID)
			s.clampAncestors(par.ID, np, d)
		}
	}
}

// minSlackOf returns the worst slack among the queries the subplan serves.
func (s *Scheduler) minSlackOf(sub int, querySlack []time.Duration) time.Duration {
	min := time.Duration(0)
	first := true
	for q := range querySlack {
		if !s.runner.Graph.Subplans[sub].Queries.Has(q) {
			continue
		}
		if first || querySlack[q] < min {
			min = querySlack[q]
			first = false
		}
	}
	return min
}
