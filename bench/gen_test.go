package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ishare/internal/sched"
	"ishare/internal/tpch"
)

// TestGeneratorsRepeat: the same seed gives the same inputs, another seed
// different ones, for every workload's generators.
func TestGeneratorsRepeat(t *testing.T) {
	type gen func(seed int64) interface{}
	gens := map[string]gen{
		"tpch rows": func(seed int64) interface{} { return tpch.Generate(0.004, seed) },
		"tpch update stream": func(seed int64) interface{} {
			return tpch.GenerateWithUpdates(0.004, seed, updateFrac)
		},
		"constraint draws": func(seed int64) interface{} {
			return drawRels(rand.New(rand.NewSource(seed)), 8, 22)
		},
		"dashboard queries and schedule": func(seed int64) interface{} {
			return dashSequence(rand.New(rand.NewSource(seed)), 40)
		},
		"dashboard streams": func(seed int64) interface{} {
			users, clicks, payments := dashData(rand.New(rand.NewSource(seed)), 3, 50)
			return []interface{}{users, clicks, payments}
		},
	}
	for name, g := range gens {
		if !reflect.DeepEqual(g(1), g(1)) {
			t.Errorf("%s: seed 1 gave two different inputs", name)
		}
		if reflect.DeepEqual(g(1), g(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same input", name)
		}
	}
}

func TestDistinctDrawsDiffer(t *testing.T) {
	rels := drawRels(rand.New(rand.NewSource(1)), 8, 22)
	for i := range rels {
		for j := i + 1; j < len(rels); j++ {
			if reflect.DeepEqual(rels[i], rels[j]) {
				t.Errorf("jobs %d and %d share a constraint draw", i, j)
			}
		}
	}
	levels := map[float64]int{}
	for _, r := range fixedRels(22) {
		levels[r]++
	}
	if len(levels) != len(relLevels) {
		t.Errorf("fixed constraints use levels %v", levels)
	}
}

// tinyJob runs one traced job of the TPC-H pipeline at check scale and a
// short pace range.
func tinyJob(t *testing.T) (jobResult, map[string]float64) {
	t.Helper()
	w := &tpchJobs{sf: checkSF, jobs: 1, distinct: true}
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	rec, lay := newRecorder(), newLayers()
	job := w.job(rec, lay, w.rels[0], 6)
	if job.failed != 0 || w.gate.failed != 0 {
		t.Fatalf("tiny job failed: %v %v", job.failures, w.gate.failures)
	}
	return job, lay.finish(1, job.totalWork)
}

// TestCountsRepeat: the counts a later change may rest a claim on are
// identical from run to run.
func TestCountsRepeat(t *testing.T) {
	a, la := tinyJob(t)
	b, lb := tinyJob(t)
	if a.totalWork != b.totalWork || a.totalWork == 0 {
		t.Errorf("total_work %d then %d", a.totalWork, b.totalWork)
	}
	for _, name := range []string{"opt.goal_miss_frac", "cost.sims", "pace.evals", "exec.firings", "opt.est_total_ratio"} {
		if la[name] != lb[name] {
			t.Errorf("%s %v then %v", name, la[name], lb[name])
		}
	}
	if la["cost.sims"] == 0 || la["pace.evals"] == 0 {
		t.Errorf("optimizer counters not read: sims %v evals %v", la["cost.sims"], la["pace.evals"])
	}

	sessionWork := func() int64 {
		w := &sessionChurn{windows: 4, rows: 300, live: 4}
		if err := w.setup(3); err != nil {
			t.Fatal(err)
		}
		facade, err := w.run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := w.run(newRecorder(), newLayers())
		if err != nil {
			t.Fatal(err)
		}
		if facade.failed != 0 || staged.failed != 0 {
			t.Fatalf("tiny session failed: %v %v", facade.failures, staged.failures)
		}
		if facade.totalWork != staged.totalWork {
			t.Errorf("session total_work: facade %d, staged pipeline %d", facade.totalWork, staged.totalWork)
		}
		return facade.totalWork
	}
	if x, y := sessionWork(), sessionWork(); x != y || x == 0 {
		t.Errorf("session total_work %d then %d", x, y)
	}

	schedWork := func() int64 {
		queries, err := overlappingTen()
		if err != nil {
			t.Fatal(err)
		}
		w := &schedUpdates{sf: 0.004, windows: 3, fullWindows: 3, window: time.Second}
		if err := w.plan(queries, fixedRels(len(queries)), 3, 6); err != nil {
			t.Fatal(err)
		}
		if w.ref, _, err = aloneAtBatchPace(w.bound, w.data); err != nil {
			t.Fatal(err)
		}
		run, err := w.drive(nil, sched.NewVirtualClock(time.Unix(0, 0)), observers{})
		if err != nil {
			t.Fatal(err)
		}
		if run.failed != 0 {
			t.Fatalf("tiny schedule failed: %v", run.failures)
		}
		return run.totalWork
	}
	if x, y := schedWork(), schedWork(); x != y || x == 0 {
		t.Errorf("sched total_work %d then %d", x, y)
	}
}

// TestGateCatchesWrongResults: a reference that differs makes the operation
// count as failed.
func TestGateCatchesWrongResults(t *testing.T) {
	w := &tpchJobs{sf: checkSF, jobs: 1}
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	w.ref[0] = w.ref[0][1:]
	if job := w.job(nil, nil, w.rels[0], 2); job.failed != 1 {
		t.Errorf("job with a wrong reference: failed = %d, want 1", job.failed)
	}
}
