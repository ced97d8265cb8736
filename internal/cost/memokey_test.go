package cost_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/pace"
	"ishare/internal/tpch"
)

// refMemo is the memo's specification, the paper's Algorithm 1 taken
// literally: one entry per distinct (subplan, own pace, descendants' paces)
// tuple, and one lookup per subplan whose private configuration differs
// from the one it is evaluated relative to.
type refMemo struct {
	g    *mqo.Graph
	desc [][]int // each subplan's transitive children
	seen map[string]bool

	sims, lookups, hits int64
}

func newRefMemo(g *mqo.Graph) *refMemo {
	r := &refMemo{g: g, desc: make([][]int, len(g.Subplans)), seen: map[string]bool{}}
	for _, s := range g.Subplans { // children-first
		in := map[int]bool{}
		for _, c := range s.Children {
			for _, d := range append([]int{c.ID}, r.desc[c.ID]...) {
				if !in[d] {
					in[d] = true
					r.desc[s.ID] = append(r.desc[s.ID], d)
				}
			}
		}
	}
	return r
}

// evaluate accounts one evaluation of paces relative to base (nil: from
// scratch).
func (r *refMemo) evaluate(base, paces []int) {
	for _, s := range r.g.Subplans {
		changed := base == nil || base[s.ID] != paces[s.ID]
		for _, d := range r.desc[s.ID] {
			changed = changed || base[d] != paces[d]
		}
		if !changed {
			continue
		}
		r.lookups++
		key := fmt.Sprint(s.ID, paces[s.ID], pick(paces, r.desc[s.ID]))
		if r.seen[key] {
			r.hits++
			continue
		}
		r.seen[key] = true
		r.sims++
	}
}

func pick(paces, ids []int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = paces[id]
	}
	return out
}

// TestMemoKeyEquivalence: a memo key is a subplan's own pace plus its
// children's output classes — what its simulation reads — so the model
// computes every float a memo-less model does, looks up exactly as often as a
// memo keyed on the private pace configuration itself (the reference), and
// simulates no more often: configurations whose children produce
// bit-identical outputs share one simulation. Random walks of full and
// incremental evaluations over random shared graphs and the 22-query graph
// are checked after every evaluation, and on some graph content keys must
// hit where configuration keys missed.
func TestMemoKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []*mqo.Graph{tpchGraph(t)}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, subsetGraph(t, rng))
	}
	saved := false
	for gi, g := range graphs {
		m, noMemo := cost.NewModel(g), cost.NewModel(g)
		noMemo.UseMemo = false
		ref := newRefMemo(g)
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + rng.Intn(12)
		}
		cur, cand, want := new(cost.Evaluation), new(cost.Evaluation), new(cost.Evaluation)
		if err := m.EvaluateDelta(nil, paces, cur); err != nil {
			t.Fatal(err)
		}
		ref.evaluate(nil, paces)
		for step := 0; step < 200; step++ {
			p := neighbour(m, rng, cur.Paces)
			var base []int
			if rng.Intn(4) == 0 {
				if err := m.EvaluateDelta(nil, p, cand); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := m.EvaluateDelta(cur, p, cand); err != nil {
					t.Fatal(err)
				}
				base = cur.Paces
			}
			ref.evaluate(base, p)
			if err := noMemo.EvaluateDelta(nil, p, want); err != nil {
				t.Fatal(err)
			}
			requireSameEvaluation(t, fmt.Sprintf("graph %d step %d", gi, step), cand, want)
			if m.Lookups != ref.lookups || m.Sims > ref.sims || m.Hits < ref.hits {
				t.Fatalf("graph %d step %d: sims/lookups/hits %d/%d/%d, reference %d/%d/%d",
					gi, step, m.Sims, m.Lookups, m.Hits, ref.sims, ref.lookups, ref.hits)
			}
			if rng.Intn(3) == 0 {
				cur, cand = cand, cur
			}
		}
		if ref.hits == 0 || ref.sims == ref.lookups {
			t.Errorf("graph %d: the walk never hit the memo", gi)
		}
		t.Logf("graph %d: %d lookups, %d sims (reference %d)", gi, m.Lookups, m.Sims, ref.sims)
		saved = saved || m.Sims < ref.sims
	}
	if !saved {
		t.Error("content keys never hit where configuration keys missed")
	}
}

// TestAdoptMemoMatchedRevision pins what adopting a memo across an admission
// transplants and saves: the previous revision's greedy search fills a memo,
// a model for the revision with one more query adopts it through
// mqo.MatchSubplans, and a warm search over the new revision runs. The
// adopted-entry count and the warm search's Sims are the ones the previous
// memo key — the subplan's own and descendants' paces, permuted from the old
// descendant order into the new — gave, re-pinned twice when the searches
// took the same path but memoized, and so simulated and transplanted, fewer
// configurations: once when the greedy stopped costing raises that cannot
// score, and once when the key became the children's output classes.
func TestAdoptMemoMatchedRevision(t *testing.T) {
	rest := func(name string) []tpch.Query {
		var qs []tpch.Query
		var last tpch.Query
		for _, q := range tpch.All() {
			if q.Name == name {
				last = q
			} else {
				qs = append(qs, q)
			}
		}
		return append(qs, last)
	}
	small, err := tpch.ByName("Q1", "Q22", "Q6")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		queries           []tpch.Query
		adopted, warmSims int
		oldSims           int64
	}{
		{"Q6 into Q1+Q22", small, 4, 31, 7},
		{"Q6 into the other 21", rest("Q6"), 211, 1047, 1240},
		{"Q9 into the other 21", rest("Q9"), 36, 1222, 1109},
	} {
		bound := bindTPCH(t, tc.queries)
		rel := make([]float64, len(bound))
		for i := range rel {
			rel[i] = 0.5
		}
		abs, err := opt.AbsoluteConstraints(bound, rel)
		if err != nil {
			t.Fatal(err)
		}
		n := len(bound) - 1
		oldG, newG := sharedGraph(t, bound[:n]), sharedGraph(t, bound)
		old := cost.NewModel(oldG)
		search(t, old, abs[:n])
		m := cost.NewModel(newG)
		adopted := m.AdoptMemo(old, mqo.MatchSubplans(oldG, newG))
		search(t, m, abs)
		if old.Sims != tc.oldSims || adopted != tc.adopted || m.Sims != int64(tc.warmSims) {
			t.Errorf("%s: old search %d sims, %d entries adopted, warm search %d sims; want %d, %d, %d",
				tc.name, old.Sims, adopted, m.Sims, tc.oldSims, tc.adopted, tc.warmSims)
		}
	}
}

// search runs the greedy pace search on m at MaxPace 10.
func search(t *testing.T, m *cost.Model, constraints []float64) {
	t.Helper()
	o, err := pace.NewOptimizer(m, constraints, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err = o.Greedy(); err != nil {
		t.Fatal(err)
	}
}

// TestNoRepeatedSimulation: a simulation is a pure function of its subplan,
// its pace and its inputs' float bits, so a memo keyed on what it reads never
// runs one twice. Every simulation of the greedy searches at the four
// constraint rotations BenchmarkPlanJob cycles through (the 22 queries,
// MaxPace 40, query q at relative level (q+rotation) mod 4) is recorded, and
// any repeat fails; a memo keyed on the private pace configuration repeats
// about a third of them.
func TestNoRepeatedSimulation(t *testing.T) {
	bound := tpchQueries(t)
	g := sharedGraph(t, bound)
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	for rot := range levels {
		rel := make([]float64, len(bound))
		for q := range rel {
			rel[q] = levels[(q+rot)%len(levels)]
		}
		abs, err := opt.AbsoluteConstraints(bound, rel)
		if err != nil {
			t.Fatal(err)
		}
		m := cost.NewModel(g)
		seen := map[string]bool{}
		repeats := 0
		var key []byte
		m.OnSimulate(func(sub, pace int, inputs []uint64) {
			key = binary.AppendUvarint(key[:0], uint64(sub))
			key = binary.AppendUvarint(key, uint64(pace))
			for _, x := range inputs {
				key = binary.LittleEndian.AppendUint64(key, x)
			}
			if seen[string(key)] {
				repeats++
			}
			seen[string(key)] = true
		})
		o, err := pace.NewOptimizer(m, abs, 40)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.Greedy(); err != nil {
			t.Fatal(err)
		}
		if repeats > 0 {
			t.Errorf("rotation %d: %d of %d simulations repeat one run before", rot, repeats, m.Sims)
		}
		t.Logf("rotation %d: %d simulations, %d memo entries holding %d output classes",
			rot, m.Sims, m.MemoEntries(), m.MemoClasses())
	}
}
