package cost

import (
	"fmt"
	"maps"

	"ishare/internal/mqo"
)

// Factor corrects one subplan's estimates using feedback from a previous
// execution of the recurring workload (paper §3.2: "for the recurring
// queries, we can calibrate the cardinality estimation based on previous
// query executions").
type Factor struct {
	// Work scales the subplan's estimated private total work.
	Work float64
	// Final scales the subplan's estimated private final work. It is kept
	// separate from Work because total work is dominated by pace-dependent
	// churn while final work is dominated by the last chunk.
	Final float64
	// Out scales the subplan's estimated output cardinalities.
	Out float64
}

// Calibration maps a subplan root's base signature — stable across
// decomposition rebuilds — to its correction factors.
type Calibration map[string]Factor

// SetCalibration installs correction factors. The memo tables are cleared:
// cached entries were computed under the previous factors. Evaluations made
// before the call are no longer evaluated relative to.
func (m *Model) SetCalibration(c Calibration) {
	m.calib = c
	m.resetMemo()
}

// Calibration returns the installed factors (nil when uncalibrated).
func (m *Model) Calibration() Calibration { return m.calib }

// applyCalibration scales entry id of subplan s's memo table, a fresh
// simulation result, by the subplan's factors.
func (m *Model) applyCalibration(s *mqo.Subplan, t *memoTable, id int32) {
	if m.calib == nil {
		return
	}
	f, ok := m.calib[s.Root.BaseSignature()]
	if !ok {
		return
	}
	e := t.entry(id)
	if f.Work > 0 {
		e.pT *= f.Work
	}
	if f.Final > 0 {
		e.pF *= f.Final
	}
	if f.Out > 0 {
		e.gross *= f.Out
		e.net *= f.Out
		perQuery := t.view(id).PerQuery
		for i := range perQuery {
			perQuery[i] *= f.Out
		}
	}
}

// CalibrationFromRun derives correction factors by comparing the graph's
// estimates under the executed pace configuration against the measured
// per-subplan total work and output sizes. Factors are clamped to
// [1/maxFactor, maxFactor] so one noisy recurrence cannot destabilize the
// next optimization.
func CalibrationFromRun(g *mqo.Graph, paces []int, measuredWork, measuredFinal, measuredOut []float64) (Calibration, error) {
	if len(measuredWork) != len(g.Subplans) || len(measuredOut) != len(g.Subplans) ||
		len(measuredFinal) != len(g.Subplans) {
		return nil, fmt.Errorf("cost: calibration needs one measurement per subplan")
	}
	// Estimate on an uncalibrated model so repeated calibrations do not
	// compound.
	m := NewModel(g)
	var ev Evaluation
	if err := m.EvaluateDelta(nil, paces, &ev); err != nil {
		return nil, err
	}
	const maxFactor = 8.0
	calib := make(Calibration, len(g.Subplans))
	for _, s := range g.Subplans {
		var f Factor
		if est := ev.SubTotal[s.ID]; est > 0 && measuredWork[s.ID] > 0 {
			f.Work = clampFactor(measuredWork[s.ID]/est, maxFactor)
		}
		if est := ev.SubFinal[s.ID]; est > 0 && measuredFinal[s.ID] > 0 {
			// Final-work factors only ever raise the estimate: final work
			// is the latency proxy, and an optimistic correction measured
			// at one pace can silently relax a non-incrementable subplan
			// (Q15) into missing its goal at another.
			f.Final = max(clampFactor(measuredFinal[s.ID]/est, maxFactor), 1)
		}
		if est := m.memo[s.ID].entry(ev.ids[s.ID]).gross; est > 0 && measuredOut[s.ID] > 0 {
			f.Out = clampFactor(measuredOut[s.ID]/est, maxFactor)
		}
		if f.Work > 0 || f.Out > 0 || f.Final > 0 {
			calib[s.Root.BaseSignature()] = f
		}
	}
	return calib, nil
}

// CalibrateFromProfile folds per-subplan observed/modeled drift EWMAs (the
// profiler's closed-loop measurement, indexed by the subplan ids of g;
// entries ≤ 0 mean "unobserved" and keep the existing factors) into a copy of
// calib: a subplan observed running drift× its calibrated estimate has
// its Work and Final factors scaled by that same ratio. Per-factor clamping
// to [1/8, 8] keeps one bad stretch of windows from destabilizing the next
// search, and Final factors never drop below 1 — CalibrationFromRun's
// pessimism rule: final work is the latency proxy, and an optimistic
// correction can silently relax a non-incrementable subplan into missing its
// deadline. Out factors are never touched: drift measures work, not
// cardinality, so every subplan's output profile is identical under the old
// and new calibration — which is exactly what lets a warm re-plan adopt the
// memo entries of undrifted subplans across the swap (pace.Replan). Factors
// are keyed by base signature, so calib may come from an earlier revision of
// the plan than g.
func CalibrateFromProfile(g *mqo.Graph, calib Calibration, drifts []float64) (Calibration, error) {
	if len(drifts) != len(g.Subplans) {
		return nil, fmt.Errorf("cost: %d drifts for %d subplans", len(drifts), len(g.Subplans))
	}
	const maxFactor = 8.0
	next := make(Calibration, len(g.Subplans))
	maps.Copy(next, calib)
	for _, s := range g.Subplans {
		d := drifts[s.ID]
		if d <= 0 || d == 1 {
			continue
		}
		sig := s.Root.BaseSignature()
		f := next[sig]
		work, final := f.Work, f.Final
		if work <= 0 {
			work = 1
		}
		if final <= 0 {
			final = 1
		}
		f.Work = clampFactor(work*d, maxFactor)
		f.Final = max(clampFactor(final*d, maxFactor), 1)
		next[sig] = f
	}
	return next, nil
}

func clampFactor(f, max float64) float64 {
	if f > max {
		return max
	}
	if f < 1/max {
		return 1 / max
	}
	return f
}
