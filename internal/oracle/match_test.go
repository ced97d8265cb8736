package oracle

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// TestMatchSubplansEqualsFullCone checks mqo.MatchSubplans — equal local
// signatures over paired inputs — against the full-cone matcher it replaced
// (fullConeMatch): on every revision of the churn corpus, the two pair
// exactly the same subplans.
func TestMatchSubplansEqualsFullCone(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	opts := DefaultOptions()
	opts.Churn = true
	revisions := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		w := Generate(seed, opts)
		if w.Churn == nil {
			continue
		}
		queries, err := w.Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		layouts, _, events := w.Churn.layouts(queries)
		for k := 1; k < w.Churn.Windows; k++ {
			if events[k] {
				revisions++
				sameMatch(t, graphOf(t, layouts[k-1]), graphOf(t, layouts[k]), "seed "+strconv.FormatInt(seed, 10))
			}
		}
	}
	if revisions == 0 {
		t.Fatal("the churn corpus revised no plan")
	}
	t.Logf("%d revisions", revisions)
}

// TestMatchSubplansEqualsFullConeTPCH does the same over random admissions
// and retirements of the TPC-H queries and their variants, slots reused
// lowest first as opt.Live does.
func TestMatchSubplansEqualsFullConeTPCH(t *testing.T) {
	steps := 1000
	if testing.Short() {
		steps = 200
	}
	cat, err := tpch.NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var pool []plan.Query
	for _, variant := range []bool{false, true} {
		qs, err := tpch.Bind(tpch.All(), cat, variant)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, qs...)
	}
	r := rand.New(rand.NewSource(1))
	slots := []plan.Query{pool[0]}
	active := 1
	prev := graphOf(t, slots)
	matched := 0
	for step := 0; step < steps; step++ {
		if active > 1 && (active >= 12 || r.Intn(2) == 0) {
			q := r.Intn(len(slots))
			for slots[q].Root == nil {
				q = r.Intn(len(slots))
			}
			slots[q] = plan.Query{}
			active--
		} else {
			q := pool[r.Intn(len(pool))]
			if i := slices.IndexFunc(slots, func(q plan.Query) bool { return q.Root == nil }); i >= 0 {
				slots[i] = q
			} else {
				slots = append(slots, q)
			}
			active++
		}
		next := graphOf(t, slots)
		matched += sameMatch(t, prev, next, "step "+strconv.Itoa(step))
		prev = next
	}
	if matched == 0 {
		t.Fatal("no revision matched a subplan")
	}
	t.Logf("%d revisions, %d matched subplans", steps, matched)
}

func graphOf(t *testing.T, qs []plan.Query) *mqo.Graph {
	t.Helper()
	sp, err := mqo.BuildWithOptions(qs, mqo.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameMatch fails the test unless mqo.MatchSubplans and fullConeMatch pair
// the same subplans of oldG and newG, and returns the number of pairs.
func sameMatch(t *testing.T, oldG, newG *mqo.Graph, what string) int {
	t.Helper()
	got, want := mqo.MatchSubplans(oldG, newG), fullConeMatch(oldG, newG)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: MatchSubplans %v, full-cone matcher %v", what, got, want)
	}
	return len(got)
}

// fullConeMatch is the matcher mqo.MatchSubplans replaced, kept as its
// reference: subplans pair when their full-cone state signatures (each
// child subplan's signature folded in) are equal and their children, in
// Subplan.Children order, are already paired.
func fullConeMatch(oldG, newG *mqo.Graph) map[int]int {
	oldSigs, newSigs := fullConeSignatures(oldG), fullConeSignatures(newG)
	bySig := make(map[string][]*mqo.Subplan)
	for _, s := range oldG.Subplans {
		bySig[oldSigs[s.ID]] = append(bySig[oldSigs[s.ID]], s)
	}
	used := make(map[int]bool)
	match := make(map[int]int)
	for _, s := range newG.Subplans {
	cands:
		for _, cand := range bySig[newSigs[s.ID]] {
			if used[cand.ID] || len(cand.Children) != len(s.Children) {
				continue
			}
			for i, c := range s.Children {
				got, ok := match[c.ID]
				if !ok || got != cand.Children[i].ID {
					continue cands
				}
			}
			used[cand.ID] = true
			match[s.ID] = cand.ID
			break
		}
	}
	return match
}

func fullConeSignatures(g *mqo.Graph) []string {
	sigs := make([]string, len(g.Subplans))
	for _, s := range g.Subplans { // children-first: child sigs exist
		var b strings.Builder
		fullConeOp(&b, g, s, s.Root, sigs)
		sigs[s.ID] = b.String()
	}
	return sigs
}

func fullConeOp(b *strings.Builder, g *mqo.Graph, s *mqo.Subplan, o *mqo.Op, sigs []string) {
	child := func(c *mqo.Op) {
		if cs := g.SubplanOf(c); cs != s {
			b.WriteString("sub[" + sigs[cs.ID] + "]")
		} else {
			fullConeOp(b, g, s, c, sigs)
		}
	}
	switch o.Kind {
	case mqo.KindScan:
		b.WriteString("scan(" + o.Table.Name + ")")
	case mqo.KindJoin:
		b.WriteString("join{")
		for i := range o.LeftKeys {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(o.LeftKeys[i]) + "=" + expr.Canon(o.RightKeys[i]))
		}
		b.WriteString("}[")
		child(o.Children[0])
		b.WriteString("|")
		child(o.Children[1])
		b.WriteString("]")
	case mqo.KindAggregate:
		b.WriteString("agg{")
		for i, gb := range o.GroupBy {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(gb.E))
		}
		b.WriteString("|")
		for i, a := range o.Aggs {
			if i > 0 {
				b.WriteString(",")
			}
			arg := "*"
			if a.Arg != nil {
				arg = expr.Canon(a.Arg)
			}
			b.WriteString(a.Func.String() + "(" + arg + ")")
		}
		b.WriteString("}[")
		child(o.Children[0])
		b.WriteString("]")
	case mqo.KindProject:
		b.WriteString("project{")
		for i, ne := range o.Exprs {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(ne.E))
		}
		b.WriteString("}[")
		child(o.Children[0])
		b.WriteString("]")
	}
	b.WriteString("@" + o.Queries.String())
	qs := make([]int, 0, len(o.Preds))
	for q := range o.Preds {
		qs = append(qs, q)
	}
	if len(qs) > 0 {
		sort.Ints(qs)
		b.WriteString("σ{")
		for i, q := range qs {
			if i > 0 {
				b.WriteString(";")
			}
			b.WriteString("q" + strconv.Itoa(q) + ":" + expr.Canon(o.Preds[q]))
		}
		b.WriteString("}")
	}
}
