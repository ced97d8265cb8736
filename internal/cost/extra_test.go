package cost

import (
	"testing"

	"ishare/internal/mqo"
	"ishare/internal/trace"
)

func joinGraph(t *testing.T) *mqo.Graph {
	return buildGraph(t, testCatalog(t), map[string]string{
		"q1": `SELECT p_brand, SUM(l_quantity) FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
		"q2": `SELECT p_brand, SUM(l_quantity) FROM part, lineitem
			WHERE p_partkey = l_partkey AND p_size > 25 GROUP BY p_brand`,
	}, []string{"q1", "q2"})
}

func TestOutputProfilesPerSubplan(t *testing.T) {
	g := joinGraph(t)
	m := NewModel(g)
	outs, err := m.OutputProfiles(ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(g.Subplans) {
		t.Fatalf("profiles = %d", len(outs))
	}
	for i, p := range outs {
		if p.Gross <= 0 {
			t.Errorf("subplan %d: gross %v", i, p.Gross)
		}
	}
}

func TestSubplanInputsAndOpOutputs(t *testing.T) {
	g := joinGraph(t)
	m := NewModel(g)
	paces := ones(len(g.Subplans))
	var shared *mqo.Subplan
	for _, s := range g.Subplans {
		if s.Queries.Count() == 2 {
			shared = s
		}
	}
	if shared == nil {
		t.Fatal("no shared subplan")
	}
	inputs, err := m.SubplanInputs(shared, paces)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range shared.Scans() {
		profs, ok := inputs[o]
		if !ok || len(profs) != 1 || profs[0].Gross <= 0 {
			t.Errorf("scan %d input profile missing", o.ID)
		}
	}
	outs, err := m.OpOutputs(shared, paces)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range shared.Ops {
		p, ok := outs[o]
		if !ok {
			t.Errorf("op %d output missing", o.ID)
			continue
		}
		if p.Gross < 0 || p.Net < 0 {
			t.Errorf("op %d: gross %v net %v", o.ID, p.Gross, p.Net)
		}
	}
}

// TestOpOutputsCountsItsSimulation: every simulation a model performs is
// counted once in Model.Sims and once in the tracer's cost.sims, including the
// per-operator one OpOutputs runs on top of its evaluation, so the trace
// counter and EXPLAIN's simulation count agree.
func TestOpOutputsCountsItsSimulation(t *testing.T) {
	g := joinGraph(t)
	m := NewModel(g)
	tr := trace.New()
	m.Trace = tr
	paces := ones(len(g.Subplans))
	if _, err := m.Evaluate(paces); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpOutputs(g.Subplans[len(g.Subplans)-1], paces); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counter("cost.sims"); got != m.Sims {
		t.Errorf("tracer counted %d simulations, the model %d", got, m.Sims)
	}
}

// TestNetIsPaceStable is the regression test for the quadratic state-growth
// bug: a join chain's accumulated output must not depend on pace to first
// order.
func TestNetIsPaceStable(t *testing.T) {
	c := testCatalog(t)
	g := buildGraph(t, c, map[string]string{
		"q": `SELECT p_brand, SUM(l_quantity) FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
	}, []string{"q"})
	m := NewModel(g)
	lazy, err := m.OutputProfiles(ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	eager := make([]int, len(g.Subplans))
	for i := range eager {
		eager[i] = 30
	}
	fast, err := m.OutputProfiles(eager)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lazy {
		if lazy[i].Net <= 0 {
			continue
		}
		ratio := fast[i].Net / lazy[i].Net
		if ratio > 3 || ratio < 0.3 {
			t.Errorf("subplan %d: net %v at pace 1 vs %v at pace 30 (ratio %.1f)",
				i, lazy[i].Net, fast[i].Net, ratio)
		}
	}
}

func TestValueClassesSplitStreams(t *testing.T) {
	g := buildGraph(t, testCatalog(t), map[string]string{
		"q1": `SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_partkey < 100 GROUP BY l_suppkey`,
		"q2": `SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_partkey >= 100 GROUP BY l_suppkey`,
	}, []string{"q1", "q2"})
	m := NewModel(g)
	single := buildGraph(t, testCatalog(t), map[string]string{
		"q1": `SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_partkey < 100 GROUP BY l_suppkey`,
	}, []string{"q1"})
	ms := NewModel(single)
	evShared, err := m.Evaluate(ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	evSingle, err := ms.Evaluate(ones(len(single.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	// Fully disjoint inputs mean the shared aggregate accumulates two
	// divergent value classes and saves nothing: the shared plan costs
	// about as much as two separate queries (sharing is NOT beneficial
	// here — the paper's core observation), but the model must not blow
	// past that either.
	if evShared.Total <= 1.5*evSingle.Total {
		t.Errorf("shared %v too close to single %v: class divergence undetected",
			evShared.Total, evSingle.Total)
	}
	if evShared.Total >= 3*evSingle.Total {
		t.Errorf("shared %v above 3x single %v", evShared.Total, evSingle.Total)
	}

	// Control: two IDENTICAL queries share everything, so the shared plan
	// must cost much less than twice a single query.
	gSame := buildGraph(t, testCatalog(t), map[string]string{
		"q1": `SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_partkey < 100 GROUP BY l_suppkey`,
		"q2": `SELECT l_suppkey, SUM(l_quantity) FROM lineitem WHERE l_partkey < 100 GROUP BY l_suppkey`,
	}, []string{"q1", "q2"})
	evSame, err := NewModel(gSame).Evaluate(ones(len(gSame.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	if evSame.Total >= 1.7*evSingle.Total {
		t.Errorf("identical-query shared plan %v not well below 2x single %v",
			evSame.Total, evSingle.Total)
	}
}

func TestProfileGrossFor(t *testing.T) {
	p := Profile{Gross: 100, Queries: mqo.Bit(0).With(3), PerQuery: []float64{25, 40}}.stream(nil)
	if got := p.grossFor(0); got != 25 {
		t.Errorf("grossFor(0) = %v", got)
	}
	if got := p.grossFor(3); got != 40 {
		t.Errorf("grossFor(3) = %v", got)
	}
	if got := p.grossFor(1); got != 100 {
		t.Errorf("query without an entry sees %v, want the whole stream", got)
	}
}

func TestCompositeDistinctCaps(t *testing.T) {
	g := joinGraph(t)
	_ = g
	if got := compositeDistinct(nil, nil, 100, nil); got != 1 {
		t.Errorf("no keys = %v", got)
	}
}
