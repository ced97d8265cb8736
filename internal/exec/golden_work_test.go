package exec_test

// Golden modeled-work regression: the Work counters of a fixed TPC-H
// workload (MIN/MAX-heavy Q15 included, 20% update stream, pace 10) are
// pinned to literal values. The state layer underneath the executor — hash
// tables, multisets, scratch pooling — may change freely, but the modeled
// work that drives every cost-model number, pace decision and experiment
// table must stay bit-identical, in every identity-index regime.

import (
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/tpch"
)

func TestGoldenModeledWork(t *testing.T) {
	exec.IndexRegimes(t, goldenModeledWork)
}

func goldenModeledWork(t *testing.T) {
	const sf, seed, updateFrac = 0.02, 1, 0.2
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName("Q1", "Q15", "Q18")
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
	r, err := exec.NewDeltaRunner(g, tpch.GenerateWithUpdates(sf, seed, updateFrac))
	if err != nil {
		t.Fatal(err)
	}
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 10
	}
	rep, err := r.Run(paces)
	if err != nil {
		t.Fatal(err)
	}

	var sum exec.Work
	for _, se := range r.Execs {
		sum.Add(se.TotalWork())
	}
	want := exec.Work{Tuples: 14417, State: 20759, Output: 9433, Rescan: 185, Fixed: 850}
	if sum != want {
		t.Errorf("summed work = %+v, want %+v", sum, want)
	}
	if rep.TotalWork != want.Total() {
		t.Errorf("TotalWork = %d, want %d", rep.TotalWork, want.Total())
	}
	wantSub := []int64{5162, 14164, 2779, 2753, 20786}
	if len(rep.SubplanTotal) != len(wantSub) {
		t.Fatalf("got %d subplans, want %d: %v", len(rep.SubplanTotal), len(wantSub), rep.SubplanTotal)
	}
	for i, got := range rep.SubplanTotal {
		if got != wantSub[i] {
			t.Errorf("subplan %d total = %d, want %d", i, got, wantSub[i])
		}
	}
}
