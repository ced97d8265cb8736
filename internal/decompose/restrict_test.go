package decompose

import (
	"math"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// copyRestricted is the reference SimPlan.Restrict replaced: it copies the
// local problem's operators restricted to the partition's queries, dropping
// the excluded queries' marker predicates, and keys the copies' external
// inputs by the copies. Compiled, the copy is what a partition used to
// simulate.
func copyRestricted(lp *LocalProblem, part mqo.Bitset) (*mqo.Subplan, map[*mqo.Op][]cost.Profile) {
	copies := make(map[*mqo.Op]*mqo.Op, len(lp.Sub.Ops))
	inputs := make(map[*mqo.Op][]cost.Profile)
	member := make(map[*mqo.Op]bool, len(lp.Sub.Ops))
	for _, o := range lp.Sub.Ops {
		member[o] = true
	}
	sub := &mqo.Subplan{Queries: part}
	for _, o := range lp.Sub.Ops {
		c := &mqo.Op{
			ID:      o.ID,
			Payload: o.Payload,
			Queries: o.Queries.Intersect(part),
			Preds:   make(map[int]expr.Expr),
			SigBase: o.SigBase,
		}
		for q, p := range o.Preds {
			if part.Has(q) {
				c.Preds[q] = p
			}
		}
		c.Children = make([]*mqo.Op, len(o.Children))
		for i, ch := range o.Children {
			if member[ch] {
				c.Children[i] = copies[ch]
				copies[ch].Parents = append(copies[ch].Parents, c)
			} else {
				// External child: the original, which the simulator reads
				// only through the inputs.
				c.Children[i] = ch
			}
		}
		copies[o] = c
		sub.Ops = append(sub.Ops, c)
		inputs[c] = lp.Inputs[o]
	}
	sub.Root = copies[lp.Sub.Root]
	return sub, inputs
}

// modeledConstraints returns each query's relative level times its modeled
// batch final work, as opt.AbsoluteConstraints computes them.
func modeledConstraints(t *testing.T, queries []plan.Query, level func(q int) float64) []float64 {
	t.Helper()
	graphs := make([]*mqo.Graph, len(queries))
	for i, q := range queries {
		_, m := sharedGraph(t, []plan.Query{q})
		graphs[i] = m.Graph
	}
	batch, err := cost.BatchFinalWork(graphs)
	if err != nil {
		t.Fatal(err)
	}
	for q := range batch {
		batch[q] *= level(q)
	}
	return batch
}

// TestRestrictEqualsCompiledCopy checks every local problem and partition
// Candidates builds while decomposing the 22 TPC-H queries at the four
// BenchmarkPlanJob rotations, and Figure 14's 20-query set at two uniform
// levels: at every pace up to MaxPace, the partition's simulation of the
// compiled plan restricted to it is bit for bit the simulation of the
// compiled restricted copy.
func TestRestrictEqualsCompiledCopy(t *testing.T) {
	const sf, maxPace = 0.02, 40
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	all, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := tpch.ByName(tpch.OverlappingTen...)
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := tpch.Bind(ten, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := tpch.Bind(ten, cat, true)
	if err != nil {
		t.Fatal(err)
	}
	fig14 = append(fig14, variants...)
	type job struct {
		name    string
		queries []plan.Query
		level   func(q int) float64
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	var jobs []job
	for rot := range levels {
		jobs = append(jobs, job{"rotation", all, func(q int) float64 { return levels[(q+rot)%len(levels)] }})
	}
	for _, rel := range []float64{0.2, 0.1} {
		jobs = append(jobs, job{"fig14", fig14, func(int) float64 { return rel }})
	}

	var problems []*LocalProblem
	testHookSolved = func(lp *LocalProblem) { problems = append(problems, lp) }
	defer func() { testHookSolved = nil }()
	partitions, sims := 0, 0
	for _, j := range jobs {
		problems = problems[:0]
		d := &Decomposer{Queries: j.queries, Constraints: modeledConstraints(t, j.queries, j.level),
			Opts: Options{MaxPace: maxPace, Unshare: true, Partial: true}}
		if _, err := d.Optimize(); err != nil {
			t.Fatal(err)
		}
		for _, lp := range problems {
			for part := range lp.parts {
				partitions++
				sub, inputs := copyRestricted(lp, part)
				ref := cost.CompileSubplan(sub)
				var arena cost.Arena
				for pace := 1; pace <= lp.MaxPace; pace++ {
					got, want := lp.simulate(part, pace), ref.Simulate(&arena, pace, inputs)
					sims++
					if math.Float64bits(got.PrivateTotal) != math.Float64bits(want.PrivateTotal) ||
						math.Float64bits(got.PrivateFinal) != math.Float64bits(want.PrivateFinal) {
						t.Fatalf("%s: subplan of root %d, partition %s, pace %d: Restrict simulates %+v, the compiled copy %+v",
							j.name, lp.Sub.Root.ID, part, pace, got, want)
					}
				}
			}
		}
		if len(problems) == 0 {
			t.Fatalf("%s: Candidates built no local problem", j.name)
		}
	}
	t.Logf("%d partitions, %d simulations compared", partitions, sims)
}
