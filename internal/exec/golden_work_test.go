package exec_test

// Golden modeled-work regression: the Work counters of a fixed TPC-H
// workload (MIN/MAX-heavy Q15 included, 20% update stream, pace 10) are
// pinned to literal values. The state layer underneath the executor — hash
// tables, multisets, scratch pooling — may change freely, but the modeled
// work that drives every cost-model number, pace decision and experiment
// table must stay bit-identical, in every identity-index regime.

import (
	"fmt"
	"reflect"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/tpch"
	"ishare/internal/vec"
)

// TestGoldenModeledWork pins the modeled work of one TPC-H job to literals,
// in every identity-index regime and under every exec.Options path: the
// defaults spelled either way, tiny chunks, sharing off and reuse off are
// physically different executions of the same modeled plan.
func TestGoldenModeledWork(t *testing.T) {
	exec.IndexRegimes(t, func(t *testing.T) {
		for _, o := range []exec.Options{{}, {Batch: vec.DefaultBatch}, {Batch: 3}, {NoShare: true}, {NoReuse: true}} {
			t.Run(fmt.Sprintf("%+v", o), func(t *testing.T) { goldenModeledWork(t, o) })
		}
	})
}

// goldenJob builds the golden job's graph and update stream.
func goldenJob(t *testing.T) (*mqo.Graph, exec.DeltaDataset) {
	t.Helper()
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
	return g, tpch.GenerateWithUpdates(sf, seed, updateFrac)
}

func goldenModeledWork(t *testing.T, opts exec.Options) {
	g, data := goldenJob(t)
	r, err := exec.New(g, data, opts)
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

// TestZeroOptionsAreTheDefaults holds exec.Options{} to its documented
// meaning: a runner built from the zero value, from the defaults written
// out, and by the NewDeltaRunner wrapper behave identically down to the
// physical counters the toggles would move (chunk counts, arrangement
// sharing, firings skipped).
func TestZeroOptionsAreTheDefaults(t *testing.T) {
	type outcome struct {
		rep     *exec.Report
		batches []int64
		arr     exec.ArrangeStats
		reuse   exec.ReuseStats
	}
	run := func(build func(*mqo.Graph, exec.DeltaDataset) (*exec.Runner, error)) outcome {
		g, data := goldenJob(t)
		r, err := build(g, data)
		if err != nil {
			t.Fatal(err)
		}
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + i%3
		}
		rep, err := r.Run(paces)
		if err != nil {
			t.Fatal(err)
		}
		rep.Wall = 0
		o := outcome{rep: rep, arr: r.ArrangeStats(), reuse: r.ReuseStats()}
		for _, se := range r.Execs {
			o.batches = append(o.batches, se.Batches())
		}
		return o
	}
	zero := run(func(g *mqo.Graph, d exec.DeltaDataset) (*exec.Runner, error) { return exec.New(g, d, exec.Options{}) })
	explicit := run(func(g *mqo.Graph, d exec.DeltaDataset) (*exec.Runner, error) {
		return exec.New(g, d, exec.Options{Batch: vec.DefaultBatch, NoShare: false, NoReuse: false})
	})
	wrapper := run(exec.NewDeltaRunner)
	if !reflect.DeepEqual(zero, explicit) {
		t.Errorf("Options{} differs from the defaults written out:\n%+v\n%+v", zero, explicit)
	}
	if !reflect.DeepEqual(zero, wrapper) {
		t.Errorf("Options{} differs from NewDeltaRunner:\n%+v\n%+v", zero, wrapper)
	}
	tiny := run(func(g *mqo.Graph, d exec.DeltaDataset) (*exec.Runner, error) {
		return exec.New(g, d, exec.Options{Batch: 3})
	})
	if reflect.DeepEqual(zero.batches, tiny.batches) {
		t.Error("chunk counts do not move with Options.Batch: the comparison above has no teeth")
	}
}
