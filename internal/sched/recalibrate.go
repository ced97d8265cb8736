package sched

import (
	"ishare/internal/cost"
	"ishare/internal/pace"
	"ishare/internal/profile"
)

// RecalibratePolicy closes the cost loop: when the drift detector's alerts
// persist, the scheduler folds the observed drift into its model's
// calibration (cost.CalibrateFromProfile), re-plans warm from that model
// (pace.Replan), and swaps the new pace vector in at the window boundary —
// the same safe point Graft uses. The whole sequence is driven from the
// canonical accounting loop, so on a virtual clock it is byte-identical at
// any worker count. New reads the policy; the scheduler never writes it.
type RecalibratePolicy struct {
	// Model is the cost model the starting paces were found with; nil
	// disables the policy. The scheduler starts from it and keeps its own:
	// each recalibration replaces that with its re-plan's, and a graft
	// keeps it, so factors learned before a graft carry over.
	Model *cost.Model
	// Constraints holds each query's final-work constraint for the
	// re-search (pace.Optimizer semantics; length = query count).
	Constraints []float64
	// MaxPace bounds the re-search's per-subplan paces.
	MaxPace int
	// Persistence is K: a subplan must raise a drift alert in K consecutive
	// windows before recalibration fires (one noisy window must not retune
	// the model). Defaults to 2.
	Persistence int
	// Cooldown is how many windows after a recalibration the trigger stays
	// disarmed while the refreshed drift EWMAs accumulate observations.
	// Defaults to Persistence.
	Cooldown int
	// BaselineScale converts the re-search evaluation's per-subplan total
	// work (Eval.SubTotal, the whole recurring workload) into the profiler's
	// per-window baseline. Defaults to 1/Windows — the run's data spread
	// evenly over its windows.
	BaselineScale float64
}

// Recalibration is the audit record of one closed-loop model update.
type Recalibration struct {
	// Window is the window whose close triggered the recalibration; the new
	// paces take effect from the next window.
	Window int `json:"window"`
	// Subplans lists the subplans whose drift alerts persisted, with their
	// EWMAs at trigger time.
	Subplans []int     `json:"subplans"`
	Drifts   []float64 `json:"drifts"`
	// OldPaces and NewPaces document the swap.
	OldPaces []int `json:"old_paces"`
	NewPaces []int `json:"new_paces"`
	// Adopted counts memo entries the warm re-search carried over from the
	// previous model (undrifted subplans keep identical output profiles, so
	// their cached simulations stay valid under the new calibration).
	Adopted int `json:"adopted"`
	// Steps and Evals are the re-search's greedy iterations and cost
	// evaluations.
	Steps int64 `json:"steps"`
	Evals int64 `json:"evals"`
}

// persistence returns the effective K.
func (rp *RecalibratePolicy) persistence() int {
	if rp.Persistence < 1 {
		return 2
	}
	return rp.Persistence
}

func (rp *RecalibratePolicy) cooldown() int {
	if rp.Cooldown < 1 {
		return rp.persistence()
	}
	return rp.Cooldown
}

// maybeRecalibrate updates the per-subplan alert streaks with this window's
// drift alerts and, when any streak reaches the persistence threshold
// (outside the post-recalibration cooldown), performs the recalibration:
// fold the drift EWMAs into the model's factors, re-plan warm from the model,
// swap paces and model, and rebase the profiler's baseline so drift tracking
// restarts against the corrected model. It returns the audit record, or nil
// when nothing fired.
func (s *Scheduler) maybeRecalibrate(alerts []profile.Alert) *Recalibration {
	rp := s.cfg.Recalibrate
	if rp == nil || s.model == nil || s.cfg.Profile == nil {
		return nil
	}
	alerted := make([]bool, len(s.streak))
	for _, a := range alerts {
		if a.Subplan >= 0 && a.Subplan < len(alerted) {
			alerted[a.Subplan] = true
		}
	}
	var trig []int
	for i := range s.streak {
		if !alerted[i] {
			s.streak[i] = 0
			continue
		}
		s.streak[i]++
		if s.streak[i] >= rp.persistence() {
			trig = append(trig, i)
		}
	}
	if s.recalCooldown > 0 {
		s.recalCooldown--
		return nil
	}
	if len(trig) == 0 {
		return nil
	}
	// Fired: whatever the outcome, the trigger restarts and cools down.
	defer s.resetRecalTrigger(rp)

	// Correction factors from the persistent drifters only: subplans inside
	// the drift band keep their factors, which is what makes their memo
	// entries adoptable below.
	drifts := s.cfg.Profile.Drifts()
	sel := make([]float64, len(drifts))
	rec := &Recalibration{
		Window:   s.window,
		OldPaces: append([]int(nil), s.paces...),
	}
	for _, id := range trig {
		sel[id] = drifts[id]
		rec.Subplans = append(rec.Subplans, id)
		rec.Drifts = append(rec.Drifts, drifts[id])
	}
	calib, err := cost.CalibrateFromProfile(s.runner.Graph, s.model.Calibration(), sel)
	if err != nil {
		return nil
	}
	rev, err := pace.Replan(s.model, s.runner.Graph, calib, rp.Constraints, rp.MaxPace)
	if err != nil {
		return nil
	}
	rec.NewPaces = append([]int(nil), rev.Paces...)
	rec.Adopted, rec.Steps, rec.Evals = rev.Adopted, rev.Steps, rev.Evals

	// Swap at the boundary (closeWindow runs after the window's final
	// firing; openWindow schedules the next window from s.paces).
	s.paces, s.model = rev.Paces, rev.Model

	// The corrected model is the new normal: rebase the profiler's
	// per-window baseline on the re-search's evaluation and restart every
	// drift EWMA from unobserved.
	scale := rp.BaselineScale
	if scale <= 0 {
		scale = 1 / float64(s.cfg.Windows)
	}
	base := make([]float64, len(rev.Eval.SubTotal))
	for i, v := range rev.Eval.SubTotal {
		base[i] = v * scale
	}
	s.cfg.Profile.Rebase(base)
	return rec
}

// resetRecalTrigger clears every alert streak and arms the cooldown.
func (s *Scheduler) resetRecalTrigger(rp *RecalibratePolicy) {
	for i := range s.streak {
		s.streak[i] = 0
	}
	s.recalCooldown = rp.cooldown()
}
