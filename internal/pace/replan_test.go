package pace

import (
	"slices"
	"testing"

	"ishare/internal/cost"
)

// TestReplanWalksTheColdPath: a warm re-plan — of the same graph under the
// same calibration, or under a calibration that changed one query root's
// factors — picks the paces a cold search picks with the same evaluations,
// adopting the memo of exactly the subplans whose factors survived.
func TestReplanWalksTheColdPath(t *testing.T) {
	g := tpchGraph(t, "Q1", "Q6", "Q14")
	constraints := relConstraints(t, cost.NewModel(g), []float64{0.5, 0.5, 0.5})
	const maxPace = 10
	cold := func(calib cost.Calibration) ([]int, int64) {
		t.Helper()
		m := cost.NewModel(g)
		m.SetCalibration(calib)
		o, err := NewOptimizer(m, constraints, maxPace)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := o.Greedy()
		if err != nil {
			t.Fatal(err)
		}
		return p, o.Evals
	}
	replan := func(old *cost.Model, calib cost.Calibration) *Revision {
		t.Helper()
		rev, err := Replan(old, g, calib, constraints, maxPace)
		if err != nil {
			t.Fatal(err)
		}
		if p, evals := cold(calib); !slices.Equal(rev.Paces, p) || rev.Evals != evals {
			t.Errorf("re-plan chose %v in %d evaluations, a cold search %v in %d", rev.Paces, rev.Evals, p, evals)
		}
		return rev
	}

	first := replan(nil, nil)
	if first.Adopted != 0 {
		t.Errorf("a cold plan adopted %d entries", first.Adopted)
	}
	same := replan(first.Model, nil)
	if same.Adopted == 0 || same.Model.Sims != 0 {
		t.Errorf("re-plan of an unchanged plan adopted %d entries and simulated %d times, want every simulation adopted", same.Adopted, same.Model.Sims)
	}
	root := g.Subplans[len(g.Subplans)-1]
	drifted := replan(first.Model, cost.Calibration{root.Root.BaseSignature(): {Work: 2, Final: 2}})
	if drifted.Adopted == 0 || drifted.Adopted >= same.Adopted {
		t.Errorf("re-plan with subplan %d's factors changed adopted %d entries, want some but fewer than %d", root.ID, drifted.Adopted, same.Adopted)
	}
}
