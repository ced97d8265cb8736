package decompose

import (
	"testing"

	"ishare/internal/cost"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/pace"
)

func TestSharingBenefitConsistentWithCluster(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	tight := batch.SubFinal[s.ID] * 0.1
	lp := newLocalProblem(t, m, s, map[int]float64{0: tight, 1: tight}, 50)
	a := lp.SelectedPace(mqo.Bit(0), 1)
	b := lp.SelectedPace(mqo.Bit(1), 1)
	benefit := lp.SharingBenefit(a, b)
	merged := lp.SelectedPace(mqo.Bit(0).Union(mqo.Bit(1)), maxInt(a.Pace, b.Pace))
	want := a.Total + b.Total - merged.Total
	if benefit != want {
		t.Errorf("SharingBenefit = %v, want %v", benefit, want)
	}
	// Eq. 4 symmetry.
	if got := lp.SharingBenefit(b, a); got != benefit {
		t.Errorf("benefit not symmetric: %v vs %v", got, benefit)
	}
}

// TestRestrictDropsOtherQueriesPredicates checks that a plan restricted to
// query 0 keeps none of query 1's marker predicates: rewriting them all into
// query 0's leaves the restricted simulation bit for bit as it was, while the
// unrestricted plan, which counts the two queries' predicate classes, moves.
// Restricting leaves the plan it restricts as it was.
func TestRestrictDropsOtherQueriesPredicates(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	lp := newLocalProblem(t, m, s, map[int]float64{0: 1e12, 1: 1e12}, 10)
	var arena cost.Arena
	simulate := func(p *cost.SimPlan) cost.SimResult { return p.Simulate(&arena, 4, lp.Inputs) }
	whole := cost.CompileSubplan(s)
	merged := simulate(whole)
	single := simulate(whole.Restrict(mqo.Bit(0)))
	if got := simulate(whole); got != merged {
		t.Errorf("Restrict changed the plan it restricts: %+v, was %+v", got, merged)
	}
	rewritten := 0
	for _, o := range s.Ops {
		if p0, ok := o.Preds[0]; ok {
			if p1, ok := o.Preds[1]; ok && expr.Canon(p1) != expr.Canon(p0) {
				o.Preds[1] = p0
				rewritten++
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no operator carries distinct predicates of both queries: the test has no teeth")
	}
	whole = cost.CompileSubplan(s)
	if got := simulate(whole.Restrict(mqo.Bit(0))); got != single {
		t.Errorf("query 0's partition depends on query 1's predicates: %+v, was %+v", got, single)
	}
	if got := simulate(whole); got == merged {
		t.Errorf("the merged plan ignores query 1's predicates: %+v both times", got)
	}
}

func TestRestrictedSimulationCheaper(t *testing.T) {
	// A single partition processes the same input but drops the other
	// query's tuples early: its cost must be below the merged subplan's
	// at the same pace.
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	lp := newLocalProblem(t, m, s, map[int]float64{0: 1e12, 1: 1e12}, 10)
	single := lp.simulate(mqo.Bit(0), 4)
	merged := lp.simulate(s.Queries, 4)
	if single.PrivateTotal >= merged.PrivateTotal {
		t.Errorf("restricted plan %.0f not cheaper than merged %.0f",
			single.PrivateTotal, merged.PrivateTotal)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
