package decompose

import (
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Add(&catalog.Table{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_partkey", Type: value.KindInt},
			{Name: "l_suppkey", Type: value.KindInt},
			{Name: "l_quantity", Type: value.KindFloat},
		},
		Stats: catalog.TableStats{
			RowCount: 20000,
			Columns: map[string]catalog.ColumnStats{
				"l_partkey":  {Distinct: 200, Min: value.Int(0), Max: value.Int(199)},
				"l_suppkey":  {Distinct: 5000, Min: value.Int(0), Max: value.Int(4999)},
				"l_quantity": {Distinct: 50, Min: value.Int(1), Max: value.Int(50)},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// q15Pair binds two Q15-shaped queries (max over per-supplier sums) whose
// predicates overlap only partially — the paper's Figure 14 scenario.
func q15Pair(t *testing.T, c *catalog.Catalog) []plan.Query {
	t.Helper()
	sqls := []struct{ name, sql string }{
		{"Q15", `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq FROM lineitem
			WHERE l_partkey < 100 GROUP BY l_suppkey) t`},
		{"Q15v", `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq FROM lineitem
			WHERE l_partkey >= 75 GROUP BY l_suppkey) t`},
	}
	var out []plan.Query
	for _, q := range sqls {
		n, err := plan.ParseAndBind(q.sql, c)
		if err != nil {
			t.Fatalf("bind %s: %v", q.name, err)
		}
		out = append(out, plan.Query{Name: q.name, Root: n})
	}
	return out
}

func sharedGraph(t *testing.T, queries []plan.Query) (*mqo.Graph, *cost.Model) {
	t.Helper()
	sp, err := mqo.Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g, cost.NewModel(g)
}

func findShared(t *testing.T, g *mqo.Graph) *mqo.Subplan {
	t.Helper()
	for _, s := range g.Subplans {
		if s.Queries.Count() >= 2 {
			return s
		}
	}
	t.Fatal("no shared subplan")
	return nil
}

// newLocalProblem builds a LocalProblem over the full shared subplan with
// the given per-query local constraints.
func newLocalProblem(t *testing.T, m *cost.Model, s *mqo.Subplan, constraints map[int]float64, maxPace int) *LocalProblem {
	t.Helper()
	paces := pace.Ones(len(m.Graph.Subplans))
	inputs, err := m.SubplanInputs(s, paces)
	if err != nil {
		t.Fatal(err)
	}
	return &LocalProblem{Sub: s, Inputs: inputs, Constraints: constraints, MaxPace: maxPace}
}

func TestSelectedPaceMeetsConstraint(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	tight := batch.SubFinal[s.ID] * 0.2
	lp := newLocalProblem(t, m, s, map[int]float64{0: tight, 1: tight}, 100)
	p := lp.SelectedPace(s.Queries, 1)
	if p.Pace <= 1 {
		t.Errorf("tight constraint selected pace %d", p.Pace)
	}
	r := lp.simulate(s.Queries, p.Pace)
	if r.PrivateFinal > tight {
		// The best-effort fallback is allowed only when no pace works.
		any := false
		for k := 1; k <= 100; k++ {
			if lp.simulate(s.Queries, k).PrivateFinal <= tight {
				any = true
				break
			}
		}
		if any {
			t.Errorf("selected pace %d misses constraint although one exists", p.Pace)
		}
	}
}

// TestSelectedPaceMonotoneUnderMerge checks the paper's §4.1.2 observation:
// a merged partition's selected pace is no smaller than its parts'.
func TestSelectedPaceMonotoneUnderMerge(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	constraints := map[int]float64{
		0: batch.SubFinal[s.ID] * 0.3,
		1: batch.SubFinal[s.ID] * 0.15,
	}
	lp := newLocalProblem(t, m, s, constraints, 100)
	p0 := lp.SelectedPace(mqo.Bit(0), 1)
	p1 := lp.SelectedPace(mqo.Bit(1), 1)
	merged := lp.SelectedPace(mqo.Bit(0).Union(mqo.Bit(1)), 1)
	if merged.Pace < p0.Pace || merged.Pace < p1.Pace {
		t.Errorf("merged pace %d below parts %d/%d", merged.Pace, p0.Pace, p1.Pace)
	}
}

func TestClusterSplitsNonIncrementablePair(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	tight := batch.SubFinal[s.ID] * 0.1
	lp := newLocalProblem(t, m, s, map[int]float64{0: tight, 1: tight}, 100)
	parts := Cluster(lp)
	if len(parts) != 2 {
		t.Errorf("tightly constrained Q15 pair should split, got %d partition(s)", len(parts))
	}
	merged := lp.SelectedPace(s.Queries, 1)
	if SplitTotal(parts) >= merged.Total {
		t.Errorf("split total %.0f not below merged %.0f", SplitTotal(parts), merged.Total)
	}
}

func TestClusterKeepsSharingWhenLoose(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	loose := batch.SubFinal[s.ID] * 2
	lp := newLocalProblem(t, m, s, map[int]float64{0: loose, 1: loose}, 100)
	parts := Cluster(lp)
	if len(parts) != 1 {
		t.Errorf("loose constraints should keep the pair shared, got %d partitions", len(parts))
	}
	if parts[0].Pace != 1 {
		t.Errorf("loose constraints should select batch pace, got %d", parts[0].Pace)
	}
}

func TestBruteForceNoWorseThanClustering(t *testing.T) {
	g, m := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	batch, err := m.Evaluate(pace.Ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	tight := batch.SubFinal[s.ID] * 0.1
	for _, cons := range []map[int]float64{
		{0: tight, 1: tight},
		{0: tight * 10, 1: tight},
	} {
		lp1 := newLocalProblem(t, m, s, cons, 50)
		lp2 := newLocalProblem(t, m, s, cons, 50)
		cl := Cluster(lp1)
		bf := BruteForce(lp2)
		if SplitTotal(bf) > SplitTotal(cl)+1e-6 {
			t.Errorf("brute force %.0f worse than clustering %.0f", SplitTotal(bf), SplitTotal(cl))
		}
	}
}

func TestDecomposerUnshareReducesTotalWork(t *testing.T) {
	c := testCatalog(t)
	queries := q15Pair(t, c)
	g, m := sharedGraph(t, queries)
	batchGraphs := make([]*mqo.Graph, len(queries))
	for i, q := range queries {
		gi, _ := sharedGraph(t, []plan.Query{q})
		batchGraphs[i] = gi
	}
	bf, err := cost.BatchFinalWork(batchGraphs)
	if err != nil {
		t.Fatal(err)
	}
	constraints := []float64{bf[0] * 0.1, bf[1] * 0.1}
	_ = g
	_ = m

	without := &Decomposer{Queries: queries, Constraints: constraints,
		Opts: Options{MaxPace: 50, Unshare: false}}
	rw, err := without.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	with := &Decomposer{Queries: queries, Constraints: constraints,
		Opts: Options{MaxPace: 50, Unshare: true}}
	ru, err := with.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if with.Accepted == 0 {
		t.Error("decomposer accepted no split on the Q15 pair")
	}
	if ru.Eval.Total >= rw.Eval.Total {
		t.Errorf("unshare total %.0f not below w/o-unshare %.0f", ru.Eval.Total, rw.Eval.Total)
	}
	if err := ru.Graph.Plan.Validate(); err != nil {
		t.Errorf("rebuilt plan invalid: %v", err)
	}
	// The rebuilt plan keeps the parent<=child pace invariant.
	for _, s := range ru.Graph.Subplans {
		for _, ch := range s.Children {
			if ru.Paces[s.ID] > ru.Paces[ch.ID] {
				t.Errorf("parent %d pace %d exceeds child %d pace %d",
					s.ID, ru.Paces[s.ID], ch.ID, ru.Paces[ch.ID])
			}
		}
	}
	if len(ru.Splits) == 0 {
		t.Error("accepted decomposition recorded no splits")
	}
}

func TestDecomposerKeepsSharingWhenBeneficial(t *testing.T) {
	// Unbounded constraints: everything runs in batch, sharing wins, no
	// split is adopted. (Note that a merely "relative 1.0" constraint is
	// NOT loose for a shared Q15 pair: the shared subplan's final work
	// covers the union of both queries' data and exceeds each query's
	// separate batch final work — the paper's Figure 11 observation.)
	c := testCatalog(t)
	queries := q15Pair(t, c)
	d := &Decomposer{Queries: queries,
		Constraints: []float64{1e15, 1e15},
		Opts:        Options{MaxPace: 50, Unshare: true}}
	r, err := d.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted != 0 {
		t.Errorf("loose constraints adopted %d splits", d.Accepted)
	}
	if len(r.Splits) != 0 {
		t.Errorf("splits recorded without adoption: %v", r.Splits)
	}
}

func TestPartialDecompositionCandidates(t *testing.T) {
	c := testCatalog(t)
	queries := q15Pair(t, c)
	g, m := sharedGraph(t, queries)
	s := findShared(t, g)
	d := &Decomposer{Queries: queries,
		Constraints: []float64{1e12, 1e12},
		Opts:        Options{MaxPace: 20, Partial: true, Unshare: true}}
	res := &Result{Graph: g, Model: m, Paces: pace.Ones(len(g.Subplans)), Splits: map[string][]mqo.Bitset{}}
	ev, err := m.Evaluate(res.Paces)
	if err != nil {
		t.Fatal(err)
	}
	res.Eval = ev
	cands, err := d.Candidates(res, s)
	if err != nil {
		t.Fatal(err)
	}
	// With effectively no constraints everything runs in batch: no
	// candidate should promise a gain (sharing is free at pace 1).
	for _, cand := range cands {
		if cand.LocalGain > 0 && len(cand.Parts) > 1 {
			t.Logf("candidate ops=%d gain=%.1f (acceptable: gain is local only)", len(cand.Ops), cand.LocalGain)
		}
	}
}

func TestSubtreeCandidatesAreRootPrefixes(t *testing.T) {
	g, _ := sharedGraph(t, q15Pair(t, testCatalog(t)))
	s := findShared(t, g)
	d := &Decomposer{Opts: Options{MaxPace: 10}}
	subs := d.subtreeCandidates(s)
	if len(subs) != len(s.Ops)-1 {
		t.Fatalf("candidates = %d, want %d", len(subs), len(s.Ops)-1)
	}
	for _, ops := range subs {
		if ops[0] != s.Root {
			t.Error("subtree does not start at the root")
		}
	}
}
