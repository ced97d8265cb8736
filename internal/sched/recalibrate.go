package sched

import (
	"ishare/internal/cost"
	"ishare/internal/pace"
	"ishare/internal/profile"
)

// RecalibratePolicy closes the cost loop: when the drift detector's alerts
// persist, the scheduler folds the observed drift back into the cost model
// (cost.CalibrateFromProfile), re-runs the pace search warm-started from the
// live memo (cost.AdoptMemo + pace.GreedyFrom), and swaps the new pace
// vector in at the window boundary — the same safe point Graft uses. The
// whole sequence is driven from the canonical accounting loop, so on a
// virtual clock it is byte-identical at any worker count.
type RecalibratePolicy struct {
	// Model is the live cost model the scheduled paces were found with; each
	// recalibration replaces it with a freshly calibrated model that adopted
	// the undrifted subplans' memo entries.
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
// derive new correction factors from the drift EWMAs, warm-start a re-search
// on the recalibrated model, swap the pace vector, and rebase the profiler's
// baseline so drift tracking restarts against the corrected model. It
// returns the audit record, or nil when nothing fired.
func (s *Scheduler) maybeRecalibrate(alerts []profile.Alert) *Recalibration {
	rp := s.cfg.Recalibrate
	if rp == nil || rp.Model == nil || s.cfg.Profile == nil {
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
	newCalib, err := cost.CalibrateFromProfile(rp.Model, sel)
	if err != nil {
		return nil
	}

	// Warm re-search: a fresh model under the new calibration adopts the
	// memo entries of every subplan whose factors did not change — output
	// profiles are calibration-stable (Out factors never move), so those
	// cached simulations remain exact — then greedy restarts from batch
	// (greedy only ever raises paces, so Ones is the correct warm start).
	next := cost.NewModel(s.runner.Graph)
	next.SetCalibration(newCalib)
	oldCalib := rp.Model.Calibration()
	match := make(map[int]int, len(s.runner.Graph.Subplans))
	for _, sub := range s.runner.Graph.Subplans {
		sig := sub.Root.BaseSignature()
		if newCalib[sig] == oldCalib[sig] {
			match[sub.ID] = sub.ID
		}
	}
	rec.Adopted = next.AdoptMemo(rp.Model, match)
	opt, err := pace.NewOptimizer(next, rp.Constraints, rp.MaxPace)
	if err != nil {
		return nil
	}
	newPaces, ev, err := opt.GreedyFrom(pace.Ones(len(s.runner.Graph.Subplans)))
	if err != nil {
		return nil
	}
	rec.NewPaces = append([]int(nil), newPaces...)
	rec.Steps, rec.Evals = opt.Steps, opt.Evals

	// Swap at the boundary (closeWindow runs after the window's final
	// firing; openWindow schedules the next window from s.paces) and make
	// the recalibrated model the live one for the next round.
	s.paces = append([]int(nil), newPaces...)
	rp.Model = next

	// The corrected model is the new normal: rebase the profiler's
	// per-window baseline on the re-search's evaluation and restart every
	// drift EWMA from unobserved.
	scale := rp.BaselineScale
	if scale <= 0 {
		scale = 1 / float64(s.cfg.Windows)
	}
	base := make([]float64, len(ev.SubTotal))
	for i, v := range ev.SubTotal {
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
