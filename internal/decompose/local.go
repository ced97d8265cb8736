// Package decompose implements iShare's subplan decomposition (paper §4):
// the subtree-local optimization problem over splits of a shared subplan's
// query set, the selected-pace search, the sharing-benefit metric (Eq. 4),
// the bottom-up clustering algorithm, a brute-force split enumeration for
// comparison, partial (subtree) decomposition, and the full-plan driver that
// rebuilds the shared plan with accepted splits and re-finds paces with the
// reverse greedy.
package decompose

import (
	"math"

	"ishare/internal/cost"
	"ishare/internal/expr"
	"ishare/internal/mqo"
)

// LocalProblem is the decomposition context for one shared subplan (or a
// subtree of it sharing the root): find a split of its query set, and a pace
// per partition, minimizing the local total work subject to each partition
// meeting the lowest local final-work constraint among its queries.
type LocalProblem struct {
	// Sub holds the root and member ops being split. For partial
	// decomposition it is a pseudo-subplan covering only a subtree.
	Sub *mqo.Subplan
	// Inputs are the member ops' external input profiles under the
	// current full-plan pace configuration (paper Figure 7).
	Inputs map[*mqo.Op][]cost.Profile
	// Constraints maps query id to its local final-work constraint.
	Constraints map[int]float64
	// MaxPace bounds the selected-pace search.
	MaxPace int

	// Sims counts partition simulations (optimization-overhead metric).
	Sims int64

	// cache holds, per partition and pace, the two floats SelectedPace
	// reads: the private total and final work.
	cache map[simKey]cost.SimResult
	// parts caches, per partition, the restricted subplan copy compiled
	// for simulation: neither depends on the pace being tried.
	parts map[mqo.Bitset]*restricted
	// arena is the state every partition's simulations write in turn, the
	// Decomposer's when it built the problem.
	arena *cost.Arena
}

// restricted is the subplan copy for one partition, compiled, with the
// copies' external inputs.
type restricted struct {
	plan   *cost.SimPlan
	inputs map[*mqo.Op][]cost.Profile
}

type simKey struct {
	part mqo.Bitset
	pace int
}

// Partition is one element of a split with its selected pace and cost.
type Partition struct {
	// Queries is the partition's query set.
	Queries mqo.Bitset
	// Pace is the selected pace R*: the smallest pace meeting the
	// partition's lowest local constraint.
	Pace int
	// Total is W_PT(O, R*): the partial local total work at that pace.
	Total float64
}

// simulate estimates the work of the restricted subplan copy for one
// partition at one pace.
func (lp *LocalProblem) simulate(part mqo.Bitset, pace int) cost.SimResult {
	if lp.cache == nil {
		lp.cache = make(map[simKey]cost.SimResult)
	}
	k := simKey{part: part, pace: pace}
	if r, ok := lp.cache[k]; ok {
		return r
	}
	rp, ok := lp.parts[part]
	if !ok {
		sub, inputs := lp.restrict(part)
		rp = &restricted{plan: cost.CompileSubplan(sub), inputs: inputs}
		if lp.parts == nil {
			lp.parts = make(map[mqo.Bitset]*restricted)
		}
		lp.parts[part] = rp
	}
	if lp.arena == nil {
		lp.arena = new(cost.Arena)
	}
	lp.Sims++
	r := rp.plan.Simulate(lp.arena, pace, rp.inputs)
	lp.cache[k] = r
	return r
}

// restrict copies the subplan's operators restricted to the partition's
// queries: excluded queries' marker predicates are dropped, so former
// markers now actually drop tuples no partition member needs — the work
// saving that un-sharing buys.
func (lp *LocalProblem) restrict(part mqo.Bitset) (*mqo.Subplan, map[*mqo.Op][]cost.Profile) {
	copies := make(map[*mqo.Op]*mqo.Op, len(lp.Sub.Ops))
	inputs := make(map[*mqo.Op][]cost.Profile)
	member := make(map[*mqo.Op]bool, len(lp.Sub.Ops))
	for _, o := range lp.Sub.Ops {
		member[o] = true
	}
	sub := &mqo.Subplan{Queries: part}
	for _, o := range lp.Sub.Ops {
		c := &mqo.Op{
			ID:      o.ID,
			Payload: o.Payload,
			Queries: o.Queries.Intersect(part),
			Preds:   make(map[int]expr.Expr),
			SigBase: o.SigBase,
		}
		for q, p := range o.Preds {
			if part.Has(q) {
				c.Preds[q] = p
			}
		}
		c.Children = make([]*mqo.Op, len(o.Children))
		for i, ch := range o.Children {
			if member[ch] {
				c.Children[i] = copies[ch]
				copies[ch].Parents = append(copies[ch].Parents, c)
			} else {
				// External child: keep the original pointer purely as a
				// placeholder; the simulator resolves it via Inputs.
				c.Children[i] = ch
			}
		}
		copies[o] = c
		sub.Ops = append(sub.Ops, c)
		inputs[c] = lp.Inputs[o]
	}
	sub.Root = copies[lp.Sub.Root]
	return sub, inputs
}

// minConstraint returns the partition's binding local constraint.
func (lp *LocalProblem) minConstraint(part mqo.Bitset) float64 {
	min := math.Inf(1)
	for _, q := range part.Members() {
		if l, ok := lp.Constraints[q]; ok && l < min {
			min = l
		}
	}
	return min
}

// SelectedPace finds the smallest pace, at least start, whose local final
// work meets the partition's lowest constraint (paper §4.1.2). The search is
// monotone: a merged partition starts from the larger of its parents'
// selected paces. If no pace within MaxPace meets the constraint, the
// best-effort answer is the pace with the lowest final work.
func (lp *LocalProblem) SelectedPace(part mqo.Bitset, start int) Partition {
	limit := lp.minConstraint(part)
	if start < 1 {
		start = 1
	}
	best := Partition{Queries: part, Pace: start}
	bestFinal := math.Inf(1)
	for p := start; p <= lp.MaxPace; p++ {
		r := lp.simulate(part, p)
		if r.PrivateFinal <= limit {
			return Partition{Queries: part, Pace: p, Total: r.PrivateTotal}
		}
		if r.PrivateFinal < bestFinal {
			bestFinal = r.PrivateFinal
			best = Partition{Queries: part, Pace: p, Total: r.PrivateTotal}
		}
	}
	return best
}

// SharingBenefit implements Equation 4: the work saved by keeping two
// partitions merged rather than separate.
func (lp *LocalProblem) SharingBenefit(a, b Partition) float64 {
	start := a.Pace
	if b.Pace > start {
		start = b.Pace
	}
	merged := lp.SelectedPace(a.Queries.Union(b.Queries), start)
	return a.Total + b.Total - merged.Total
}
