package opt

import (
	"fmt"
	"math"
	"slices"

	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/mqo"
	"ishare/internal/pace"
	"ishare/internal/plan"
)

// Live is a shared plan being served online: queries are admitted to and
// retired from it while the engine runs. Query slots are positional and
// never renumbered — a retired slot keeps its index (with a nil plan) so
// tuple bitvector positions, constraints and results stay stable for every
// other query — and admission reuses the lowest inactive slot before
// growing, keeping the plan under the bitvector limit indefinitely.
//
// Every revision is planned by rebuilding the shared graph over the active
// slots (deterministically, so the result is identical to a from-scratch
// build of the same query set), then re-planning it warm from the previous
// revision (pace.Replan): the same pace vector as a cold replan, re-simulating
// only the subplans the admission or retirement changed.
type Live struct {
	// Graph, Model and Paces describe the current plan revision. Callers
	// execute it (exec.Runner.Graft / sched.Scheduler.Graft) but must treat
	// the fields as read-only.
	Graph *mqo.Graph
	Model *cost.Model
	Paces []int

	queries     []plan.Query
	constraints []float64
	classes     func(sig string, q int) int
	maxPace     int
	calib       cost.Calibration
}

// AdmitReport describes what one admission or retirement did.
type AdmitReport struct {
	// Slot is the query slot admitted into or retired from.
	Slot int
	// MemoSeeded is the number of cost-model memo entries carried over from
	// the previous revision (pace.Revision.Adopted). How many executors
	// carried over is the graft's to say (exec.GraftStats).
	MemoSeeded int
	// Sims and Evals are the warm pace search's simulation and evaluation
	// counts — compare against a cold replan's to see the saving.
	Sims, Evals int64
	// Paces is the new pace vector.
	Paces []int
}

// NewLive plans the initial query set and returns the live plan. splits
// optionally freezes a previously adopted decomposition (Planned.Splits):
// rebuilds keep its sharing classes, with later-admitted queries defaulting
// to the maximally shared class.
func NewLive(req Request, splits map[string][]mqo.Bitset) (*Live, error) {
	if len(req.Constraints) != len(req.Queries) {
		return nil, fmt.Errorf("opt: %d constraints for %d queries", len(req.Constraints), len(req.Queries))
	}
	if req.MaxPace < 1 {
		return nil, fmt.Errorf("opt: max pace %d", req.MaxPace)
	}
	l := &Live{
		queries:     append([]plan.Query(nil), req.Queries...),
		constraints: append([]float64(nil), req.Constraints...),
		classes:     decompose.ClassesFromSplits(splits),
		maxPace:     req.MaxPace,
		calib:       req.Calibration,
	}
	if _, err := l.replan(); err != nil {
		return nil, err
	}
	return l, nil
}

// Clone returns a copy that Admit and Retire move without changing l: it
// owns its slots and constraints and shares the revision, which a replan
// only reads. A caller that must first commit a revision elsewhere (a graft)
// admits into a clone and keeps it only if that succeeds.
func (l *Live) Clone() *Live {
	c := *l
	c.queries = slices.Clone(l.queries)
	c.constraints = slices.Clone(l.constraints)
	return &c
}

// NumSlots returns the number of query slots, active or not.
func (l *Live) NumSlots() int { return len(l.queries) }

// Active reports whether slot q currently serves a query.
func (l *Live) Active(q int) bool { return l.Query(q).Root != nil }

// Query returns the query in slot q; the zero Query if it is not active.
func (l *Live) Query(q int) plan.Query {
	if q < 0 || q >= len(l.queries) {
		return plan.Query{}
	}
	return l.queries[q]
}

// Admit adds a query to the running plan under an absolute final-work
// constraint, returning the slot it was assigned and a report on the warm
// pace search. On error l is unchanged.
func (l *Live) Admit(q plan.Query, constraint float64) (int, *AdmitReport, error) {
	if q.Root == nil {
		return -1, nil, fmt.Errorf("opt: admit: query %q has no plan", q.Name)
	}
	next := l.Clone()
	slot := slices.IndexFunc(next.queries, func(q plan.Query) bool { return q.Root == nil })
	if slot == -1 {
		if len(next.queries) >= mqo.MaxQueries {
			return -1, nil, fmt.Errorf("opt: admit: all %d query slots active", mqo.MaxQueries)
		}
		slot = len(next.queries)
		next.queries = append(next.queries, plan.Query{})
		next.constraints = append(next.constraints, 0)
	}
	next.queries[slot], next.constraints[slot] = q, constraint
	rep, err := next.replan()
	if err != nil {
		return -1, nil, err
	}
	*l = *next
	rep.Slot = slot
	return slot, rep, nil
}

// Retire removes the query in slot q from the running plan. The slot goes
// inactive (it is never renumbered) and may be reused by a later admission.
// The last active query cannot be retired — a shared plan must serve
// something. On error l is unchanged.
func (l *Live) Retire(q int) (*AdmitReport, error) {
	if !l.Active(q) {
		return nil, fmt.Errorf("opt: retire: slot %d is not active", q)
	}
	active := 0
	for i := range l.queries {
		if l.queries[i].Root != nil {
			active++
		}
	}
	if active == 1 {
		return nil, fmt.Errorf("opt: retire: slot %d is the last active query", q)
	}
	next := l.Clone()
	next.queries[q], next.constraints[q] = plan.Query{}, math.Inf(1)
	rep, err := next.replan()
	if err != nil {
		return nil, err
	}
	*l = *next
	rep.Slot = q
	return rep, nil
}

// replan rebuilds the shared graph over the current slots and re-plans it.
// It installs the new revision only on success.
func (l *Live) replan() (*AdmitReport, error) {
	sp, err := mqo.BuildWithOptions(l.queries, mqo.BuildOptions{Classes: l.classes})
	if err != nil {
		return nil, err
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		return nil, err
	}
	rev, err := pace.Replan(l.Model, g, l.calib, l.constraints, l.maxPace)
	if err != nil {
		return nil, err
	}
	l.Graph, l.Model, l.Paces = g, rev.Model, rev.Paces
	return &AdmitReport{
		MemoSeeded: rev.Adopted,
		Sims:       rev.Model.Sims,
		Evals:      rev.Evals,
		Paces:      append([]int(nil), rev.Paces...),
	}, nil
}
