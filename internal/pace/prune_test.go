package pace_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/oracle"
	"ishare/internal/pace"
	"ishare/internal/trace"
)

// raised returns p with subplan i raised by one, together with its ancestors
// for a chain.
func raised(m *cost.Model, p []int, i int, chain bool) []int {
	q := append([]int(nil), p...)
	q[i]++
	if chain {
		for _, a := range m.Ancestors(i) {
			q[a]++
		}
	}
	return q
}

// replayPrune runs a traced greedy search, then replays its decisions on a
// fresh model step by step. At every step it costs, against the incumbent,
// each raise and chain candidate the search skipped as unable to score, and
// requires its incrementability — and the score the search recorded for it —
// to be exactly +0. It returns the number of skipped candidates checked.
func replayPrune(t *testing.T, g *mqo.Graph, constraints []float64, maxPace int) int {
	t.Helper()
	o, err := pace.NewOptimizer(cost.NewModel(g), constraints, maxPace)
	if err != nil {
		t.Fatal(err)
	}
	o.Trace = trace.New()
	want, _, err := o.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(g)
	p := pace.Ones(len(g.Subplans))
	cur, cand := new(cost.Evaluation), new(cost.Evaluation)
	if err := m.EvaluateDelta(nil, p, cur); err != nil {
		t.Fatal(err)
	}
	checked := 0
	check := func(i int, chain bool, recorded float64) {
		t.Helper()
		if err := m.EvaluateDelta(cur, raised(m, p, i, chain), cand); err != nil {
			t.Fatal(err)
		}
		inc := o.Incrementability(cand.Eval, cur.Eval)
		if math.Float64bits(inc) != 0 || math.Float64bits(recorded) != 0 {
			t.Fatalf("paces %v: skipped raise of subplan %d (chain %t) has incrementability %v, recorded %v; want +0",
				p, i, chain, inc, recorded)
		}
		checked++
	}
	advance := func(i int, chain bool) {
		t.Helper()
		p = raised(m, p, i, chain)
		if err := m.EvaluateDelta(cur, p, cand); err != nil {
			t.Fatal(err)
		}
		cur, cand = cand, cur
	}
	for _, d := range o.Trace.Decisions("pace.greedy") {
		switch d.Action {
		case "raise":
			missed := o.Missed(cur.Eval)
			for _, c := range d.Candidates {
				if !o.MayScore(c.Subplan, missed) {
					check(c.Subplan, false, c.Score)
				}
			}
			if d.Accepted {
				advance(d.Subplan, false)
				continue
			}
			// No raise scored, so the step went on to the chain raises.
			for _, i := range o.ChainCandidates(p) {
				if !o.MayScore(i, missed) {
					check(i, true, 0)
				}
			}
		case "chain":
			advance(d.Subplan, true)
		}
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("the replay ended at paces %v, the search at %v", p, want)
	}
	return checked
}

// TestPruneIsExact: the greedy does not cost a raise or chain raise none of
// whose reachable queries — those of the subplan and its ancestors — misses
// its goal, and scores it 0. Every such candidate of the searches below is
// costed anyway, at the step it was skipped, and must have incrementability
// exactly +0: the four search-golden rotations, and 200 graphs of generated
// workloads with at most 8 subplans at MaxPace 2 to 8.
func TestPruneIsExact(t *testing.T) {
	queries, g := searchQueries(t)
	golden := 0
	for rot := range searchLevels {
		golden += replayPrune(t, g, rotationConstraints(t, queries, rot), searchMaxPace)
	}
	rng := rand.New(rand.NewSource(24))
	graphs, generated := 0, 0
	for seed := int64(0); graphs < 200; seed++ {
		bound, err := oracle.Generate(seed, oracle.DefaultOptions()).Bind()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sp, err := mqo.Build(bound)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(g.Subplans) > 8 {
			continue
		}
		rel := make([]float64, len(bound))
		for q := range rel {
			rel[q] = searchLevels[rng.Intn(len(searchLevels))]
		}
		abs, err := opt.AbsoluteConstraints(bound, rel)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		generated += replayPrune(t, g, abs, 2+rng.Intn(7))
		graphs++
	}
	if golden == 0 || generated == 0 {
		t.Fatalf("skipped candidates checked: %d on the search-golden rotations, %d on generated graphs; the prune went unexercised",
			golden, generated)
	}
	t.Logf("skipped candidates checked: %d on the search-golden rotations, %d on %d generated graphs", golden, generated, graphs)
}
