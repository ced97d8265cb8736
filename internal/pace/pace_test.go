package pace

import (
	"math"
	"reflect"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/trace"
	"ishare/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	add := func(name string, rows float64, cols []catalog.Column, stats map[string]catalog.ColumnStats) {
		if err := c.Add(&catalog.Table{Name: name, Columns: cols, Stats: catalog.TableStats{RowCount: rows, Columns: stats}}); err != nil {
			t.Fatal(err)
		}
	}
	add("lineitem", 10000,
		[]catalog.Column{
			{Name: "l_partkey", Type: value.KindInt},
			{Name: "l_suppkey", Type: value.KindInt},
			{Name: "l_quantity", Type: value.KindFloat},
		},
		map[string]catalog.ColumnStats{
			"l_partkey":  {Distinct: 200, Min: value.Int(0), Max: value.Int(199)},
			"l_suppkey":  {Distinct: 5000, Min: value.Int(0), Max: value.Int(4999)},
			"l_quantity": {Distinct: 50, Min: value.Int(1), Max: value.Int(50)},
		})
	add("part", 200,
		[]catalog.Column{
			{Name: "p_partkey", Type: value.KindInt},
			{Name: "p_brand", Type: value.KindString},
			{Name: "p_size", Type: value.KindInt},
		},
		map[string]catalog.ColumnStats{
			"p_partkey": {Distinct: 200, Min: value.Int(0), Max: value.Int(199)},
			"p_brand":   {Distinct: 25},
			"p_size":    {Distinct: 50, Min: value.Int(1), Max: value.Int(50)},
		})
	return c
}

func buildGraph(t *testing.T, c *catalog.Catalog, sqls map[string]string, order []string) *mqo.Graph {
	t.Helper()
	var queries []plan.Query
	for _, name := range order {
		n, err := plan.ParseAndBind(sqls[name], c)
		if err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
		queries = append(queries, plan.Query{Name: name, Root: n})
	}
	sp, err := mqo.Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// relConstraints converts relative constraints into absolute ones using the
// batch final work of the shared graph itself (adequate for these tests).
func relConstraints(t *testing.T, m *cost.Model, rel []float64) []float64 {
	t.Helper()
	batch, err := m.Evaluate(Ones(len(m.Graph.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(rel))
	for q, r := range rel {
		out[q] = r * batch.QueryFinal[q]
	}
	return out
}

// tpchGraph binds the named TPC-H queries into one shared subplan graph.
func tpchGraph(t *testing.T, names ...string) *mqo.Graph {
	t.Helper()
	cat, err := tpch.NewCatalog(0.05)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newSearch builds a fresh model and optimizer over g so each search starts
// from a cold memo table.
func newSearch(t *testing.T, g *mqo.Graph, rel []float64, maxPace int) *Optimizer {
	t.Helper()
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, rel), maxPace)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// mirroredGraph builds two structurally identical single-table queries over
// two tables with identical statistics, so their subplans tie exactly on
// incrementability at every greedy step.
func mirroredGraph(t *testing.T) *mqo.Graph {
	t.Helper()
	c := catalog.New()
	for _, name := range []string{"t1", "t2"} {
		err := c.Add(&catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "k", Type: value.KindInt},
				{Name: "v", Type: value.KindFloat},
			},
			Stats: catalog.TableStats{
				RowCount: 5000,
				Columns: map[string]catalog.ColumnStats{
					"k": {Distinct: 100, Min: value.Int(0), Max: value.Int(99)},
					"v": {Distinct: 50, Min: value.Int(1), Max: value.Int(50)},
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return buildGraph(t, c, map[string]string{
		"QA": `SELECT SUM(v) AS s FROM t1 GROUP BY k`,
		"QB": `SELECT SUM(v) AS s FROM t2 GROUP BY k`,
	}, []string{"QA", "QB"})
}

// TestGreedyTieBreakDeterminism documents the tie-breaking rule: when two
// candidate increments have exactly equal incrementability, the lowest
// subplan ID wins, and repeated cold searches return the same result.
func TestGreedyTieBreakDeterminism(t *testing.T) {
	g := mirroredGraph(t)
	rel := []float64{0.5, 0.5}

	// The mirrored subplans must produce a genuine exact tie on the first
	// greedy step, otherwise this test exercises nothing.
	o := newSearch(t, g, rel, 10)
	base, err := o.Model.Evaluate(Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	incs := make(map[float64][]int)
	for i := range g.Subplans {
		p := Ones(len(g.Subplans))
		if p[i]+1 > o.childMin(i, p) {
			continue
		}
		p[i]++
		ev, err := o.Model.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		inc := o.Incrementability(ev, base)
		incs[inc] = append(incs[inc], i)
	}
	var tied []int
	for inc, ids := range incs {
		if inc > 0 && len(ids) >= 2 {
			tied = ids
		}
	}
	if tied == nil {
		t.Fatalf("mirrored graph produced no exact incrementability tie: %v", incs)
	}

	ref := newSearch(t, g, rel, 10)
	ref.Trace = trace.New()
	want, wantEval, err := ref.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if first := ref.Trace.Decisions("pace.greedy")[0]; first.Action != "raise" || first.Subplan != tied[0] {
		t.Errorf("first step %s subplan %d, want raise of the lowest tied subplan %d (tied: %v)",
			first.Action, first.Subplan, tied[0], tied)
	}
	for run := 0; run < 4; run++ {
		got, gotEval, err := newSearch(t, g, rel, 10).Greedy()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d: paces differ under ties: %v vs %v", run, want, got)
		}
		if !reflect.DeepEqual(wantEval, gotEval) {
			t.Fatalf("run %d: evals differ under ties", run)
		}
	}
}

func paperGraph(t *testing.T) *mqo.Graph {
	return buildGraph(t, testCatalog(t), map[string]string{
		"QA": `SELECT SUM(agg_l.sum_quantity) AS total FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey == l_partkey`,
		"QB": `SELECT AVG(agg_l.sum_quantity) AS avg_q FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey = l_partkey AND p_size == 15`,
	}, []string{"QA", "QB"})
}

func TestGreedyBatchWhenConstraintsLoose(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, []float64{1.0, 1.0}), 50)
	if err != nil {
		t.Fatal(err)
	}
	p, ev, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if v != 1 {
			t.Errorf("pace[%d] = %d, want 1 under relative constraint 1.0", i, v)
		}
	}
	if !o.meets(ev) {
		t.Error("batch does not meet its own relative constraint 1.0")
	}
	// The search ends on its first, full evaluation, which counts as one.
	if o.Evals != 1 || o.Steps != 0 {
		t.Errorf("evals %d, steps %d; want 1, 0", o.Evals, o.Steps)
	}
}

func TestGreedyMeetsTightConstraints(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, []float64{0.2, 0.2}), 100)
	if err != nil {
		t.Fatal(err)
	}
	p, ev, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !o.meets(ev) {
		t.Errorf("constraints unmet: finals %v vs %v (paces %v)", ev.QueryFinal, o.Constraints, p)
	}
	raised := false
	for _, v := range p {
		if v > 1 {
			raised = true
		}
	}
	if !raised {
		t.Error("tight constraint left every pace at 1")
	}
}

func TestGreedyRespectsParentChildPaceOrder(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, []float64{0.1, 0.1}), 100)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.Subplans {
		for _, c := range s.Children {
			if p[s.ID] > p[c.ID] {
				t.Errorf("parent subplan %d pace %d exceeds child %d pace %d",
					s.ID, p[s.ID], c.ID, p[c.ID])
			}
		}
	}
}

func TestGreedySlackQueryStaysLazy(t *testing.T) {
	// QA has slack (1.0), QB is tight (0.1): QA's private subplan should
	// stay at pace 1 while the shared subplan speeds up for QB.
	g := paperGraph(t)
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, []float64{1.0, 0.1}), 100)
	if err != nil {
		t.Fatal(err)
	}
	p, ev, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !o.meets(ev) {
		t.Fatalf("constraints unmet: %v vs %v", ev.QueryFinal, o.Constraints)
	}
	for _, s := range g.Subplans {
		if s.Queries.Count() == 1 && s.Queries.Has(0) { // QA's private subplan
			if p[s.ID] != 1 {
				t.Errorf("QA's private subplan pace = %d, want 1 (it has slack)", p[s.ID])
			}
		}
		if s.Queries.Count() == 2 && p[s.ID] == 1 {
			t.Errorf("shared subplan stayed at pace 1 despite QB's 0.1 constraint")
		}
	}
}

func TestBenefitAndIncrementability(t *testing.T) {
	o := &Optimizer{Constraints: []float64{100}}
	lazy := cost.Eval{Total: 1000, QueryFinal: []float64{500}}
	eager := cost.Eval{Total: 1200, QueryFinal: []float64{300}}
	if got := o.Benefit(eager, lazy); got != 200 {
		t.Errorf("Benefit = %v, want 200", got)
	}
	if got := o.Incrementability(eager, lazy); got != 1.0 {
		t.Errorf("Incrementability = %v, want 1.0", got)
	}
	// Once under the constraint, further reduction yields no benefit.
	under := cost.Eval{Total: 1500, QueryFinal: []float64{50}}
	alsoUnder := cost.Eval{Total: 1600, QueryFinal: []float64{20}}
	if got := o.Benefit(alsoUnder, under); got != 0 {
		t.Errorf("Benefit below constraint = %v, want 0", got)
	}
	// Benefit is bounded by the constraint: 500 -> 50 counts only to 100.
	if got := o.Benefit(under, lazy); got != 400 {
		t.Errorf("bounded Benefit = %v, want 400", got)
	}
	// Dominating move: cheaper and better.
	dom := cost.Eval{Total: 900, QueryFinal: []float64{300}}
	if got := o.Incrementability(dom, lazy); !math.IsInf(got, 1) {
		t.Errorf("dominating incrementability = %v, want +Inf", got)
	}
}

func TestReverseGreedyLowersPaces(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	o, err := NewOptimizer(m, relConstraints(t, m, []float64{1.0, 1.0}), 100)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]int, len(g.Subplans))
	for i := range start {
		start[i] = 10
	}
	p, ev, err := o.ReverseGreedy(start)
	if err != nil {
		t.Fatal(err)
	}
	lowered := false
	for i := range p {
		if p[i] > start[i] {
			t.Errorf("reverse greedy raised pace[%d]: %d -> %d", i, start[i], p[i])
		}
		if p[i] < start[i] {
			lowered = true
		}
	}
	if !lowered {
		t.Error("reverse greedy lowered nothing despite loose constraints")
	}
	if !o.meets(ev) {
		t.Errorf("reverse greedy violated constraints: %v vs %v", ev.QueryFinal, o.Constraints)
	}
	startEval, err := m.Evaluate(start)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total > startEval.Total {
		t.Errorf("reverse greedy increased total work: %.0f -> %.0f", startEval.Total, ev.Total)
	}
}

func TestReverseGreedyKeepsTightConstraint(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	abs := relConstraints(t, m, []float64{1.0, 0.1})
	o, err := NewOptimizer(m, abs, 100)
	if err != nil {
		t.Fatal(err)
	}
	gp, gEval, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !o.meets(gEval) {
		t.Skip("greedy could not meet constraints at this scale")
	}
	p, ev, err := o.ReverseGreedy(gp)
	if err != nil {
		t.Fatal(err)
	}
	if !o.meets(ev) {
		t.Errorf("reverse greedy broke constraints: %v vs %v (paces %v)", ev.QueryFinal, o.Constraints, p)
	}
}

func TestNewOptimizerValidation(t *testing.T) {
	g := paperGraph(t)
	m := cost.NewModel(g)
	if _, err := NewOptimizer(m, []float64{1}, 10); err == nil {
		t.Error("wrong constraint count accepted")
	}
	if _, err := NewOptimizer(m, []float64{1, 1}, 0); err == nil {
		t.Error("max pace 0 accepted")
	}
}
