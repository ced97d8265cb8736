package cost_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/tpch"
)

// subsetGraph binds a random subset of the TPC-H queries into one shared
// subplan graph: each draw shares different operators, so the subplan DAGs
// differ in depth, fan-in and fan-out.
func subsetGraph(t *testing.T, rng *rand.Rand) *mqo.Graph {
	t.Helper()
	all := tpch.All()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return sharedGraph(t, bindTPCH(t, all[:2+rng.Intn(5)]))
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameEvaluation compares every field of the two Evals and every
// output profile bit for bit.
func requireSameEvaluation(t *testing.T, what string, got, want *cost.Evaluation) {
	t.Helper()
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) ||
		!sameBits(got.SubTotal, want.SubTotal) || !sameBits(got.SubFinal, want.SubFinal) ||
		!sameBits(got.QueryFinal, want.QueryFinal) {
		t.Fatalf("%s: paces %v: Eval differs:\n got %+v\nwant %+v", what, got.Paces, got.Eval, want.Eval)
	}
	if !reflect.DeepEqual(got.Paces, want.Paces) {
		t.Fatalf("%s: evaluated paces %v, want %v", what, got.Paces, want.Paces)
	}
	for id, w := range want.Outputs() {
		g := got.Outputs()[id]
		if !sameBits([]float64{g.Gross, g.Net, g.DeleteShare}, []float64{w.Gross, w.Net, w.DeleteShare}) ||
			g.Queries != w.Queries || !sameBits(g.PerQuery, w.PerQuery) || !reflect.DeepEqual(g.Cols, w.Cols) {
			t.Fatalf("%s: paces %v: subplan %d output differs:\n got %+v\nwant %+v", what, got.Paces, id, g, w)
		}
	}
}

// neighbour returns a configuration near p: one pace changed, one subplan
// raised together with its ancestors (the chain move), or a few random
// paces changed.
func neighbour(m *cost.Model, rng *rand.Rand, p []int) []int {
	q := append([]int(nil), p...)
	i := rng.Intn(len(q))
	switch rng.Intn(3) {
	case 0:
		q[i] = 1 + rng.Intn(12)
	case 1:
		q[i]++
		for _, a := range m.Ancestors(i) {
			q[a]++
		}
	default:
		for k := 0; k < 1+rng.Intn(4); k++ {
			q[rng.Intn(len(q))] = 1 + rng.Intn(12)
		}
	}
	return q
}

// walkDeltas evaluates a random walk of neighbouring configurations on m,
// each relative to the walk's incumbent, and requires every one of them to
// equal the from-scratch evaluation of a fresh model built by newModel.
func walkDeltas(t *testing.T, what string, m *cost.Model, newModel func() *cost.Model, rng *rand.Rand, steps int) {
	t.Helper()
	n := len(m.Graph.Subplans)
	paces := make([]int, n)
	for i := range paces {
		paces[i] = 1 + rng.Intn(12)
	}
	cur, cand, want := new(cost.Evaluation), new(cost.Evaluation), new(cost.Evaluation)
	if err := m.EvaluateDelta(nil, paces, cur); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		p := neighbour(m, rng, cur.Paces)
		if err := m.EvaluateDelta(cur, p, cand); err != nil {
			t.Fatal(err)
		}
		if err := newModel().EvaluateDelta(nil, p, want); err != nil {
			t.Fatal(err)
		}
		requireSameEvaluation(t, what, cand, want)
		if rng.Intn(3) == 0 { // move on, as a search does after a step
			cur, cand = cand, cur
		}
	}
}

// TestDeltaEqualsFull is the incremental evaluator's contract: an evaluation
// relative to an incumbent equals, in every bit of its Eval and of every
// output profile, the from-scratch evaluation of a fresh model — over random
// shared graphs and the 22-query graph, for single-pace, chain and
// multi-pace changes, after SetCalibration, after AdoptMemo, and with the
// memo off (where every evaluation must simulate every subplan and the
// tables hold no more than one evaluation's entries).
func TestDeltaEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	graphs := []*mqo.Graph{tpchGraph(t)}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, subsetGraph(t, rng))
	}
	for gi, g := range graphs {
		steps := 25
		if gi == 0 {
			steps = 60
		}
		fresh := func() *cost.Model { return cost.NewModel(g) }
		m := fresh()
		walkDeltas(t, "plain", m, fresh, rng, steps)

		// A calibration that scales work, final work and output sizes.
		calib := cost.Calibration{}
		for _, s := range g.Subplans {
			if rng.Intn(2) == 0 {
				calib[s.Root.BaseSignature()] = cost.Factor{Work: 1.5, Final: 2, Out: 0.75}
			}
		}
		calibrated := func() *cost.Model {
			c := cost.NewModel(g)
			c.SetCalibration(calib)
			return c
		}
		m.SetCalibration(calib)
		walkDeltas(t, "calibrated", m, calibrated, rng, steps)

		adopted := calibrated()
		match := make(map[int]int, len(g.Subplans))
		for _, s := range g.Subplans {
			match[s.ID] = s.ID
		}
		if adopted.AdoptMemo(m, match) == 0 {
			t.Fatal("nothing adopted from a warm model")
		}
		walkDeltas(t, "adopted", adopted, calibrated, rng, steps)

		noMemo := fresh()
		noMemo.UseMemo = false
		walkDeltas(t, "memo off", noMemo, fresh, rng, steps)
		if want := int64(steps+1) * int64(len(g.Subplans)); noMemo.Sims != want || noMemo.Lookups != 0 {
			t.Errorf("memo off: %d sims, %d lookups over %d evaluations of %d subplans, want %d sims",
				noMemo.Sims, noMemo.Lookups, steps+1, len(g.Subplans), want)
		}
		// Without a memo nothing outlives an evaluation.
		if n := noMemo.MemoEntries(); n != len(g.Subplans) {
			t.Errorf("memo off: %d entries held after %d evaluations, want one evaluation's %d",
				n, steps+1, len(g.Subplans))
		}
	}
}

// TestStaleIncumbentIsNotReused: an Evaluation taken before SetCalibration or
// AdoptMemo describes tables that are gone, so an evaluation relative to it
// must re-cost every subplan — even at the very same paces, where every
// subplan would otherwise be taken over unchanged.
func TestStaleIncumbentIsNotReused(t *testing.T) {
	g := tpchGraph(t)
	n := int64(len(g.Subplans))
	m := cost.NewModel(g)
	paces := uniform(g, 3)
	base, out, want := new(cost.Evaluation), new(cost.Evaluation), new(cost.Evaluation)
	if err := m.EvaluateDelta(nil, paces, base); err != nil {
		t.Fatal(err)
	}
	if err := m.EvaluateDelta(base, paces, out); err != nil {
		t.Fatal(err)
	}
	if m.Lookups != n {
		t.Fatalf("a delta at the incumbent's own paces looked up %d subplans, want 0", m.Lookups-n)
	}

	calib := cost.Calibration{}
	for _, s := range g.Subplans {
		calib[s.Root.BaseSignature()] = cost.Factor{Work: 2, Final: 3, Out: 0.5}
	}
	m.SetCalibration(calib)
	if err := m.EvaluateDelta(base, paces, out); err != nil {
		t.Fatal(err)
	}
	ref := cost.NewModel(g)
	ref.SetCalibration(calib)
	if err := ref.EvaluateDelta(nil, paces, want); err != nil {
		t.Fatal(err)
	}
	requireSameEvaluation(t, "after SetCalibration", out, want)

	// out is current again; adopting a memo retires it in turn.
	before := m.Lookups
	match := map[int]int{}
	for _, s := range g.Subplans {
		match[s.ID] = s.ID
	}
	m.AdoptMemo(ref, match)
	if err := m.EvaluateDelta(out, paces, base); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookups - before; got != n {
		t.Errorf("after AdoptMemo a delta looked up %d subplans, want all %d", got, n)
	}
	requireSameEvaluation(t, "after AdoptMemo", base, want)

	// An Evaluation of another model is no incumbent either.
	before = m.Lookups
	if err := m.EvaluateDelta(want, paces, out); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookups - before; got != n {
		t.Errorf("relative to another model's evaluation a delta looked up %d subplans, want all %d", got, n)
	}
}
