package cost_test

import (
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
// children's entry ids, which names its private pace configuration one to
// one — so the model simulates, looks up and hits exactly as often as a memo
// keyed on the configuration itself would. Random walks of full and
// incremental evaluations over random shared graphs and the 22-query graph
// (whose subplans with four and five children fold their keys) are checked
// against the reference after every evaluation.
func TestMemoKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []*mqo.Graph{tpchGraph(t)}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, subsetGraph(t, rng))
	}
	for gi, g := range graphs {
		m := cost.NewModel(g)
		ref := newRefMemo(g)
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + rng.Intn(12)
		}
		cur, cand := new(cost.Evaluation), new(cost.Evaluation)
		if err := m.EvaluateDelta(nil, paces, cur); err != nil {
			t.Fatal(err)
		}
		ref.evaluate(nil, paces)
		for step := 0; step < 200; step++ {
			p := neighbour(m, rng, cur.Paces)
			var base []int
			if rng.Intn(4) == 0 {
				if _, err := m.Evaluate(p); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := m.EvaluateDelta(cur, p, cand); err != nil {
					t.Fatal(err)
				}
				base = cur.Paces
			}
			ref.evaluate(base, p)
			if m.Sims != ref.sims || m.Lookups != ref.lookups || m.Hits != ref.hits {
				t.Fatalf("graph %d step %d: sims/lookups/hits %d/%d/%d, reference %d/%d/%d",
					gi, step, m.Sims, m.Lookups, m.Hits, ref.sims, ref.lookups, ref.hits)
			}
			if base != nil && rng.Intn(3) == 0 {
				cur, cand = cand, cur
			}
		}
		if ref.hits == 0 || ref.sims == ref.lookups {
			t.Errorf("graph %d: the walk never hit the memo", gi)
		}
	}
}

// TestAdoptMemoMatchedRevision pins what adopting a memo across an admission
// transplants and saves: the previous revision's greedy search fills a memo,
// a model for the revision with one more query adopts it through
// mqo.MatchSubplans, and a warm search over the new revision runs. The
// adopted-entry count and the warm search's Sims are the ones the previous
// memo key — the subplan's own and descendants' paces, permuted from the old
// descendant order into the new — gave, re-pinned once when the greedy
// stopped costing raises that cannot score: the searches take the same path
// but memoize, and so simulate and transplant, fewer configurations.
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
		{"Q6 into Q1+Q22", small, 4, 47, 7},
		{"Q6 into the other 21", rest("Q6"), 569, 2596, 3144},
		{"Q9 into the other 21", rest("Q9"), 47, 3118, 2843},
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
