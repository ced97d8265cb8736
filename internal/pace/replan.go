package pace

import (
	"ishare/internal/cost"
	"ishare/internal/mqo"
)

// Revision is one warm re-plan's outcome: the model over the revised graph
// with every simulation it holds, the greedy search's paces, evaluation,
// iterations and cost evaluations, and the memo entries adopted from the old
// model.
type Revision struct {
	Model        *cost.Model
	Paces        []int
	Eval         cost.Eval
	Adopted      int
	Steps, Evals int64
}

// Replan re-plans a revision of a running plan warm (paper §3.2) — a graph
// g revised from old's by an admission or retirement, a calibration revised
// by folded-in drift, or both — and is the one place that decides what a
// revision keeps of the cost model. It builds the model over g under calib,
// adopts old's memo entries for every subplan that mqo.MatchSubplans pairs
// and whose factors calib leaves unchanged, and runs Greedy: the path and
// paces of a cold search, minus the adopted simulations. old may be nil.
func Replan(old *cost.Model, g *mqo.Graph, calib cost.Calibration, constraints []float64, maxPace int) (*Revision, error) {
	m := cost.NewModel(g)
	m.SetCalibration(calib)
	rev := &Revision{Model: m}
	if old != nil {
		oldCalib := old.Calibration()
		match := mqo.MatchSubplans(old.Graph, g)
		for id, oldID := range match {
			if oldCalib[old.Graph.Subplans[oldID].Root.BaseSignature()] != calib[g.Subplans[id].Root.BaseSignature()] {
				delete(match, id)
			}
		}
		rev.Adopted = m.AdoptMemo(old, match)
	}
	o, err := NewOptimizer(m, constraints, maxPace)
	if err != nil {
		return nil, err
	}
	if rev.Paces, rev.Eval, err = o.Greedy(); err != nil {
		return nil, err
	}
	rev.Steps, rev.Evals = o.Steps, o.Evals
	return rev, nil
}
