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

	// plan is Sub compiled for simulation, once: each partition simulates
	// it restricted to its queries.
	plan *cost.SimPlan
	// parts caches, per partition, the restricted plan and its simulations
	// at each pace tried.
	parts map[mqo.Bitset]*restricted
	// arena is the state every partition's simulations write in turn, the
	// Decomposer's when it built the problem.
	arena *cost.Arena
}

// restricted is the plan restricted to one partition, with its simulation
// at each pace up to MaxPace where done.
type restricted struct {
	plan *cost.SimPlan
	sims []paceSim
}

// paceSim is a partition's simulation at one pace, once done.
type paceSim struct {
	r    cost.SimResult
	done bool
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

// simulate estimates the work of the subplan restricted to one partition at
// one pace, at most MaxPace.
func (lp *LocalProblem) simulate(part mqo.Bitset, pace int) cost.SimResult {
	rp, ok := lp.parts[part]
	if !ok {
		if lp.plan == nil {
			lp.plan = cost.CompileSubplan(lp.Sub)
			lp.parts = make(map[mqo.Bitset]*restricted)
		}
		rp = &restricted{plan: lp.plan.Restrict(part), sims: make([]paceSim, lp.MaxPace+1)}
		lp.parts[part] = rp
	}
	s := &rp.sims[pace]
	if !s.done {
		if lp.arena == nil {
			lp.arena = new(cost.Arena)
		}
		lp.Sims++
		*s = paceSim{r: rp.plan.Simulate(lp.arena, pace, lp.Inputs), done: true}
	}
	return s.r
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
	start = max(start, 1)
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
	merged := lp.SelectedPace(a.Queries.Union(b.Queries), max(a.Pace, b.Pace))
	return a.Total + b.Total - merged.Total
}
