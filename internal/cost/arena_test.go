package cost_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/mqo"
)

// cloneProfile copies a profile deeply, so a later overwrite of buffers it
// aliased would show.
func cloneProfile(p cost.Profile) cost.Profile {
	p.PerQuery = append([]float64(nil), p.PerQuery...)
	p.Cols = append([]catalog.ColumnStats(nil), p.Cols...)
	return p
}

func uniform(g *mqo.Graph, p int) []int {
	v := make([]int, len(g.Subplans))
	for i := range v {
		v[i] = p
	}
	return v
}

// TestMemoizedOutputsSurviveArenaReuse: what a simulation hands to the memo
// must not alias the arena it ran in. Every subplan is memoized at pace 7;
// 50 further evaluations then re-simulate every subplan at other paces
// through the same arenas; the memoized outputs must be unchanged, and
// parents consuming them must cost exactly what a memo-less model computes.
func TestMemoizedOutputsSurviveArenaReuse(t *testing.T) {
	g := tpchGraph(t)
	m := cost.NewModel(g)
	base := uniform(g, 7)
	outs, err := m.OutputProfiles(base)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]cost.Profile, len(outs))
	for i, p := range outs {
		snapshot[i] = cloneProfile(p)
	}

	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		paces := make([]int, len(g.Subplans))
		for s := range paces {
			paces[s] = 1 + rng.Intn(40)
		}
		if _, err := m.Evaluate(paces); err != nil {
			t.Fatal(err)
		}
	}

	sims := m.Sims
	again, err := m.OutputProfiles(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sims != sims {
		t.Fatalf("pace-7 outputs were re-simulated (%d sims), not served from the memo", m.Sims-sims)
	}
	for i := range again {
		if !reflect.DeepEqual(again[i], snapshot[i]) {
			t.Errorf("subplan %d: memoized output changed after later simulations:\n got %+v\nwant %+v", i, again[i], snapshot[i])
		}
	}

	// Raise only the root subplans: their children are memo hits, so the
	// memoized outputs are what the fresh simulations consume.
	mixed := append([]int(nil), base...)
	for _, s := range g.Subplans {
		if len(s.Parents) == 0 {
			mixed[s.ID] = 3
		}
	}
	fresh := cost.NewModel(g)
	fresh.UseMemo = false
	for _, paces := range [][]int{base, mixed} {
		got, err := m.Evaluate(paces)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Evaluate(paces)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("paces %v: memoized model %+v, memo-less model %+v", paces, got, want)
		}
	}
}

// TestEvaluateAllocations guards the allocation-free hot path: a fully
// memoized evaluation allocates only its result, a memoized evaluation of a
// single-raise candidate relative to an incumbent allocates nothing, an
// evaluation that misses the memo allocates only the slabs its new entries
// fill and the index's growth, and a simulation on a warm arena allocates
// nothing — at pace 40 as at pace 2.
func TestEvaluateAllocations(t *testing.T) {
	g := tpchGraph(t)
	m := cost.NewModel(g)
	paces := uniform(g, 7)
	if _, err := m.Evaluate(paces); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := m.Evaluate(paces); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("memoized Evaluate: %v allocs, want <= 1", n)
	}

	base, cand := new(cost.Evaluation), new(cost.Evaluation)
	if err := m.EvaluateDelta(nil, paces, base); err != nil {
		t.Fatal(err)
	}
	raised := append([]int(nil), paces...)
	raised[0]++
	delta := func() {
		if err := m.EvaluateDelta(base, raised, cand); err != nil {
			t.Fatal(err)
		}
	}
	delta() // memoizes the raised subplan and its ancestors, sizes cand
	if n := testing.AllocsPerRun(50, delta); n != 0 {
		t.Errorf("warm delta evaluation of a single raise: %v allocs, want 0", n)
	}

	// Cold misses: 201 configurations no evaluation has seen, two leaves
	// raised to a new pair of paces relative to the incumbent, so they and
	// their ancestors are simulated and memoized.
	var leaves []int
	for _, s := range g.Subplans {
		if len(s.Children) == 0 && len(leaves) < 2 {
			leaves = append(leaves, s.ID)
		}
	}
	cold, p := 0, append([]int(nil), paces...)
	miss := func() {
		p[leaves[0]], p[leaves[1]] = 8+cold/10, 8+cold%10
		cold++
		if err := m.EvaluateDelta(base, p, cand); err != nil {
			t.Fatal(err)
		}
	}
	miss() // lays out the arenas of the subplans a miss simulates
	sims, filled := m.Sims, m.MemoBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 200 {
		miss()
	}
	runtime.ReadMemStats(&after)
	sims, filled = m.Sims-sims, m.MemoBytes()-filled
	if sims < 2*200 {
		t.Fatalf("only %d simulations in 200 cold evaluations: the configurations were not new", sims)
	}
	// Each slab is twice the size of the one before, so a table's growth
	// costs O(log entries) allocations: well below one per simulation
	// (≈ 0.3 here), where a memoized output that owned its slices cost three.
	if per := float64(after.Mallocs-before.Mallocs) / float64(sims); per > 0.5 {
		t.Errorf("evaluations that miss the memo: %.2f allocs per simulation, want <= 0.5 (slab growth only)", per)
	}
	// A slab is never copied, so the bytes allocated are the slabs filled,
	// at most the unfilled tail of the last, plus the index: 1.8x here,
	// where slabs grown by append copied each entry again (3.4x).
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*filled {
		t.Errorf("evaluations that miss the memo allocated %d B for %d B of memo entries, want <= 2x", got, filled)
	}

	var widest *mqo.Subplan
	for _, s := range g.Subplans {
		if widest == nil || len(s.Ops) > len(widest.Ops) {
			widest = s
		}
	}
	inputs, err := m.SubplanInputs(widest, paces)
	if err != nil {
		t.Fatal(err)
	}
	plan := cost.CompileSubplan(widest)
	var arena cost.Arena
	allocs := func(pace int) float64 {
		plan.Simulate(&arena, pace, inputs) // warm the arena
		return testing.AllocsPerRun(50, func() { plan.Simulate(&arena, pace, inputs) })
	}
	at2, at40 := allocs(2), allocs(40)
	if at2 != at40 {
		t.Errorf("simulation allocs depend on steps: %v at pace 2, %v at pace 40", at2, at40)
	}
	if at40 != 0 {
		t.Errorf("simulation on a warm arena: %v allocs, want 0", at40)
	}
}

// TestArenaSharedAcrossPlans: an Arena is laid out for the plan simulated in
// it and only reset while that plan is simulated again, so one arena serving
// every subplan of the 22-query graph in turn, at changing paces, must give
// exactly what a fresh arena per simulation gives.
func TestArenaSharedAcrossPlans(t *testing.T) {
	g := tpchGraph(t)
	m := cost.NewModel(g)
	paces := uniform(g, 7)
	plans := make([]*cost.SimPlan, len(g.Subplans))
	inputs := make([]map[*mqo.Op][]cost.Profile, len(g.Subplans))
	for i, s := range g.Subplans {
		plans[i] = cost.CompileSubplan(s)
		in, err := m.SubplanInputs(s, paces)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}
	rng := rand.New(rand.NewSource(24))
	var shared cost.Arena
	for range 300 {
		i, pace := rng.Intn(len(plans)), 1+rng.Intn(12)
		if rng.Intn(2) == 0 { // the next simulation only resets the arena
			plans[i].Simulate(&shared, 1+rng.Intn(12), inputs[i])
		}
		got := plans[i].Simulate(&shared, pace, inputs[i])
		want := plans[i].Simulate(new(cost.Arena), pace, inputs[i])
		if !sameBits([]float64{got.PrivateTotal, got.PrivateFinal}, []float64{want.PrivateTotal, want.PrivateFinal}) {
			t.Fatalf("subplan %d at pace %d: shared arena %+v, fresh arena %+v", i, pace, got, want)
		}
	}
}
