package pace

import (
	"testing"
	"time"

	"ishare/internal/cost"
)

// q15PairGraph builds a shared graph whose churn coupling stalls
// single-subplan increments: the Q15 shape where a parent subplan's final
// execution consumes the child's retraction churn.
func q15PairGraph(t *testing.T) *cost.Model {
	t.Helper()
	g := buildGraph(t, testCatalog(t), map[string]string{
		"q1": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq FROM lineitem
			WHERE l_partkey < 120 GROUP BY l_suppkey) t`,
		"q2": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq FROM lineitem
			WHERE l_partkey >= 60 GROUP BY l_suppkey) t`,
	}, []string{"q1", "q2"})
	return cost.NewModel(g)
}

func TestGreedyEscapesChurnCouplingViaChains(t *testing.T) {
	m := q15PairGraph(t)
	batch, err := m.Evaluate(Ones(len(m.Graph.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	constraints := []float64{batch.QueryFinal[0] * 0.1, batch.QueryFinal[1] * 0.1}
	o, err := NewOptimizer(m, constraints, 60)
	if err != nil {
		t.Fatal(err)
	}
	p, ev, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	// Chain increments must push past the single-increment stall: at least
	// one subplan runs clearly eagerly, and the achieved finals are well
	// below batch even if the tight goal itself is unreachable.
	maxPace := 0
	for _, v := range p {
		if v > maxPace {
			maxPace = v
		}
	}
	if maxPace < 4 {
		t.Errorf("greedy stalled at paces %v", p)
	}
	for q := range constraints {
		if ev.QueryFinal[q] >= batch.QueryFinal[q] {
			t.Errorf("query %d final %f not reduced from batch %f", q, ev.QueryFinal[q], batch.QueryFinal[q])
		}
	}
}

func TestGreedyDeadline(t *testing.T) {
	m := q15PairGraph(t)
	o, err := NewOptimizer(m, []float64{1, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	o.Deadline = time.Now().Add(-time.Second)
	if _, _, err := o.Greedy(); err != ErrDeadline {
		t.Errorf("expired deadline returned %v, want ErrDeadline", err)
	}
}

func TestReverseGreedyDeadline(t *testing.T) {
	m := q15PairGraph(t)
	o, err := NewOptimizer(m, []float64{1e12, 1e12}, 100)
	if err != nil {
		t.Fatal(err)
	}
	o.Deadline = time.Now().Add(-time.Second)
	start := make([]int, len(m.Graph.Subplans))
	for i := range start {
		start[i] = 5
	}
	if _, _, err := o.ReverseGreedy(start); err != ErrDeadline {
		t.Errorf("expired deadline returned %v, want ErrDeadline", err)
	}
}

// TestDeadlineMidSearch lets the deadline pass while a step's candidates are
// being costed (the searches below run for tens of milliseconds): wherever in
// the step it is noticed, both searches end with ErrDeadline.
func TestDeadlineMidSearch(t *testing.T) {
	g := tpchGraph(t, "Q1", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10", "Q15", "Q18", "Q21")
	rel := make([]float64, g.Plan.NumQueries())
	for q := range rel {
		rel[q] = 0.05
	}
	start := make([]int, len(g.Subplans))
	for i := range start {
		start[i] = 60
	}
	o := newSearch(t, g, rel, 60)
	o.Deadline = time.Now().Add(time.Millisecond)
	if _, _, err := o.Greedy(); err != ErrDeadline {
		t.Errorf("greedy past its deadline returned %v after %d evals, want ErrDeadline", err, o.Evals)
	}
	o = newSearch(t, g, rel, 60)
	o.Deadline = time.Now().Add(time.Millisecond)
	if _, _, err := o.ReverseGreedy(start); err != ErrDeadline {
		t.Errorf("reverse greedy past its deadline returned %v after %d evals, want ErrDeadline", err, o.Evals)
	}
}

func TestOnes(t *testing.T) {
	p := Ones(3)
	if len(p) != 3 || p[0] != 1 || p[2] != 1 {
		t.Errorf("Ones = %v", p)
	}
}

func TestIncrementabilityZeroDeltaNoBenefit(t *testing.T) {
	o := &Optimizer{Constraints: []float64{10}}
	a := cost.Eval{Total: 100, QueryFinal: []float64{50}}
	b := cost.Eval{Total: 100, QueryFinal: []float64{50}}
	if got := o.Incrementability(a, b); got != 0 {
		t.Errorf("flat move incrementability = %v, want 0", got)
	}
}
