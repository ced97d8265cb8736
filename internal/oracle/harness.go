package oracle

import (
	"fmt"
	"math/rand"
	"time"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/sched"
)

// CheckOptions configures the differential harness.
type CheckOptions struct {
	// PaceVectors is the number of random pace configurations to try on
	// the shared plan (beyond batch).
	PaceVectors int
	// MaxPace bounds each subplan's random pace.
	MaxPace int
	// Workers lists the RunParallel worker counts to exercise.
	Workers []int
	// Decompose also runs a fully unshared build, a random query
	// partition, and an aggregate-cut extraction.
	Decompose bool
	// Scheduler also drives the wall-clock scheduler runtime (internal/sched)
	// on a virtual clock with a random pace vector, window split and worker
	// count — including zero deadlines, so every window overloads and the
	// degradation policy rewrites paces mid-run — and requires the
	// trigger-point results to still match the oracle.
	Scheduler bool
	// Churn enables the online-admission differential pass for workloads
	// carrying a ChurnPlan: the schedule is driven through exec.Runner.Graft
	// with transplant on and off, every live query is checked against the
	// naive oracle after every window, and the final modeled-work report
	// must be byte-identical to a from-scratch run of the final plan. A
	// no-op when the workload has no churn plan.
	Churn bool
	// Reattached, when non-nil, accumulates exec.GraftStats.Reattached over
	// every churn graft, so a caller can require the graft to have re-pointed
	// an input at all.
	Reattached *int
	// Arrangements adds a sharing-invariance pass: the shared plan and (with
	// Decompose) the fully unshared decomposition — where the arrangement
	// registry is the only sharing left — re-run with arrangement sharing
	// explicitly on and off, and every run must produce identical query
	// results and an identical modeled-work report. Sharing indexed state is
	// a physical optimization that may never leak into results or the cost
	// model; the refcount invariant is checked on every runner.
	Arrangements bool
	// Reuse adds a window-reuse invariance pass: the shared plan and (with
	// Decompose) the fully unshared decomposition are driven over a windowed
	// split of the stream with clean-cone result reuse explicitly on and
	// off, and the runs must produce identical query results, an identical
	// modeled-work report, and an identical skippable-firing count (the
	// knob-independent half of the reuse counters). Skipping a clean-cone
	// firing is a physical optimization that may never leak into results or
	// the cost model. Adversarially generated workloads make this pass
	// bite: bursty-quiet tables give whole subplan cones provably clean
	// windows.
	Reuse bool
	// BatchSizes, when non-empty, adds a metamorphic batch-invariance pass:
	// the shared plan re-runs under one pace vector with each vectorized
	// chunk size, and every run must produce both identical query results
	// and an identical modeled-work report — chunking is a physical
	// execution detail that may never leak into the cost model.
	BatchSizes []int
	// Rand drives pace/partition choices; nil derives one from the
	// workload seed so checks are reproducible.
	Rand *rand.Rand
}

// DefaultCheckOptions matches the acceptance bar: ≥3 random pace vectors, a
// decomposed variant, Workers 1 and 4, a scheduler-runtime pass,
// arrangement-sharing invariance, and batch-size invariance at chunk sizes
// 1, 7 and 1024.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{
		PaceVectors:  3,
		MaxPace:      6,
		Workers:      []int{1, 4},
		Decompose:    true,
		Scheduler:    true,
		Churn:        true,
		Arrangements: true,
		Reuse:        true,
		BatchSizes:   []int{1, 7, 1024},
	}
}

// Mismatch describes one divergence between the engine and the oracle.
type Mismatch struct {
	// Config names the engine configuration that diverged.
	Config string
	// Query is the index of the diverging query; SQL its text.
	Query int
	SQL   string
	// Got and Want are canonical row keys from the engine and the oracle.
	Got, Want []string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("config %s, query %d (%s):\n  engine: %v\n  oracle: %v",
		m.Config, m.Query, m.SQL, m.Got, m.Want)
}

// Check runs the workload through the shared engine under every configured
// (pace, decomposition, workers) variant and compares each query's
// trigger-point result against the naive oracle. It returns nil if all
// configurations agree, a Mismatch for the first divergence, and an error
// only for harness problems (unbindable SQL, engine construction failures)
// that indicate a generator bug rather than an engine bug.
func Check(w *Workload, opts CheckOptions) (*Mismatch, error) {
	if opts.PaceVectors <= 0 {
		opts.PaceVectors = 3
	}
	if opts.MaxPace <= 0 {
		opts.MaxPace = 6
	}
	r := opts.Rand
	if r == nil {
		r = rand.New(rand.NewSource(w.Seed ^ 0x5deece66d))
	}

	queries, err := w.Bind()
	if err != nil {
		return nil, err
	}
	tables := FinalTables(w.Streams)
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = Canon(Eval(q.Root, tables, nil))
	}

	data := exec.DeltaDataset(w.Streams)
	run := func(config string, g *mqo.Graph, paces []int, workers int) (*Mismatch, error) {
		runner, err := exec.NewDeltaRunner(g, data)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", config, err)
		}
		if workers > 0 {
			_, err = runner.RunParallel(paces, workers)
		} else {
			_, err = runner.Run(paces)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", config, err)
		}
		for q := range queries {
			got := Canon(runner.Results(q))
			if !eqStrings(got, want[q]) {
				return &Mismatch{Config: config, Query: q, SQL: w.SQL[q], Got: got, Want: want[q]}, nil
			}
		}
		return nil, nil
	}
	buildGraph := func(opts mqo.BuildOptions, cut func(*mqo.Op) bool) (*mqo.Graph, error) {
		sp, err := mqo.BuildWithOptions(queries, opts)
		if err != nil {
			return nil, err
		}
		if cut != nil {
			return mqo.ExtractWithCuts(sp, cut)
		}
		return mqo.Extract(sp)
	}
	randPaces := func(g *mqo.Graph) []int {
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + r.Intn(opts.MaxPace)
		}
		return paces
	}
	ones := func(g *mqo.Graph) []int { return make1s(len(g.Subplans)) }

	shared, err := buildGraph(mqo.BuildOptions{}, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: shared build: %w", err)
	}

	// Batch at the trigger point: the ground configuration.
	if m, err := run("shared/batch", shared, ones(shared), 0); m != nil || err != nil {
		return m, err
	}
	// Pace-invariance: random pace vectors must not change results.
	for i := 0; i < opts.PaceVectors; i++ {
		paces := randPaces(shared)
		if m, err := run(fmt.Sprintf("shared/paces=%v", paces), shared, paces, 0); m != nil || err != nil {
			return m, err
		}
	}
	// Batch-invariance: the vectorized chunk size must change neither
	// results nor any modeled-work number. All sizes run the same pace
	// vector so their reports are directly comparable.
	if len(opts.BatchSizes) > 0 {
		paces := randPaces(shared)
		var ref *exec.Report
		var refConfig string
		for _, batch := range opts.BatchSizes {
			config := fmt.Sprintf("shared/chunk=%d/paces=%v", batch, paces)
			runner, err := exec.New(shared, data, exec.Options{Batch: batch})
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", config, err)
			}
			rep, err := runner.Run(paces)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", config, err)
			}
			for q := range queries {
				got := Canon(runner.Results(q))
				if !eqStrings(got, want[q]) {
					return &Mismatch{Config: config, Query: q, SQL: w.SQL[q], Got: got, Want: want[q]}, nil
				}
			}
			if ref == nil {
				ref, refConfig = rep, config
				continue
			}
			if diff := reportDiff(ref, rep); diff != "" {
				return &Mismatch{
					Config: config,
					Query:  -1,
					SQL:    "modeled work must be batch-size invariant",
					Got:    []string{fmt.Sprintf("%s: %s", config, diff)},
					Want:   []string{fmt.Sprintf("report identical to %s", refConfig)},
				}, nil
			}
		}
	}
	// Sharing-invariance: arrangement sharing on vs. off must change
	// neither results nor any modeled-work number, on the shared plan and
	// on the fully unshared decomposition (where per-query subplan chains
	// make the registry the only sharing in play). Both runs use one pace
	// vector so their reports are directly comparable, and every runner
	// must satisfy the registry refcount invariant afterwards.
	if opts.Arrangements {
		variants := []struct {
			name string
			g    *mqo.Graph
		}{{"shared", shared}}
		if opts.Decompose {
			ug, err := buildGraph(mqo.BuildOptions{Classes: func(sig string, q int) int { return q }}, nil)
			if err != nil {
				return nil, fmt.Errorf("oracle: unshared build: %w", err)
			}
			variants = append(variants, struct {
				name string
				g    *mqo.Graph
			}{"unshared", ug})
		}
		for _, v := range variants {
			paces := randPaces(v.g)
			var ref *exec.Report
			var refConfig string
			for _, share := range []bool{true, false} {
				config := fmt.Sprintf("%s/arrangements=%v/paces=%v", v.name, share, paces)
				runner, err := exec.New(v.g, data, exec.Options{NoShare: !share})
				if err != nil {
					return nil, fmt.Errorf("oracle: %s: %w", config, err)
				}
				rep, err := runner.Run(paces)
				if err != nil {
					return nil, fmt.Errorf("oracle: %s: %w", config, err)
				}
				for q := range queries {
					got := Canon(runner.Results(q))
					if !eqStrings(got, want[q]) {
						return &Mismatch{Config: config, Query: q, SQL: w.SQL[q], Got: got, Want: want[q]}, nil
					}
				}
				if err := runner.CheckArrangements(); err != nil {
					return &Mismatch{
						Config: config,
						Query:  -1,
						SQL:    "arrangement refcount invariant",
						Got:    []string{err.Error()},
						Want:   []string{"registry refs match executor handles"},
					}, nil
				}
				if ref == nil {
					ref, refConfig = rep, config
					continue
				}
				if diff := reportDiff(ref, rep); diff != "" {
					return &Mismatch{
						Config: config,
						Query:  -1,
						SQL:    "modeled work must be sharing-invariant",
						Got:    []string{fmt.Sprintf("%s: %s", config, diff)},
						Want:   []string{fmt.Sprintf("report identical to %s", refConfig)},
					}, nil
				}
			}
		}
	}
	// Reuse-invariance: window-level result reuse on vs. off must change
	// neither results nor any modeled-work number, nor the deterministic
	// skippable-firing count, on the shared plan and on the fully unshared
	// decomposition. The stream is split into a few windows (uniform pace 2
	// per window) so idle-cone windows actually occur.
	if opts.Reuse {
		variants := []struct {
			name string
			g    *mqo.Graph
		}{{"shared", shared}}
		if opts.Decompose {
			ug, err := buildGraph(mqo.BuildOptions{Classes: func(sig string, q int) int { return q }}, nil)
			if err != nil {
				return nil, fmt.Errorf("oracle: unshared build: %w", err)
			}
			variants = append(variants, struct {
				name string
				g    *mqo.Graph
			}{"unshared", ug})
		}
		windows := 2 + r.Intn(2)
		for _, v := range variants {
			var ref *exec.Report
			var refConfig string
			refSkippable := int64(-1)
			for _, reuse := range []bool{true, false} {
				config := fmt.Sprintf("%s/reuse=%v/windows=%d", v.name, reuse, windows)
				runner, err := exec.New(v.g, exec.DeltaDataset{}, exec.Options{NoReuse: !reuse})
				if err != nil {
					return nil, fmt.Errorf("oracle: %s: %w", config, err)
				}
				for k := 0; k < windows; k++ {
					win := make(exec.DeltaDataset, len(data))
					for name, ts := range data {
						win[name] = ts[len(ts)*k/windows : len(ts)*(k+1)/windows]
					}
					runner.StartWindow(win)
					for j := 1; j <= 2; j++ {
						runner.ArriveWindow(j, 2)
						for id := 0; id < len(v.g.Subplans); id++ {
							runner.RunSubplan(id)
						}
					}
				}
				rep := runner.ReportNow()
				for q := range queries {
					got := Canon(runner.Results(q))
					if !eqStrings(got, want[q]) {
						return &Mismatch{Config: config, Query: q, SQL: w.SQL[q], Got: got, Want: want[q]}, nil
					}
				}
				stats := runner.ReuseStats()
				if !reuse && stats.Skipped != 0 {
					return &Mismatch{
						Config: config,
						Query:  -1,
						SQL:    "reuse off must not skip firings",
						Got:    []string{fmt.Sprintf("skipped %d firings", stats.Skipped)},
						Want:   []string{"skipped 0"},
					}, nil
				}
				if refSkippable == -1 {
					ref, refConfig, refSkippable = rep, config, stats.Skippable
					continue
				}
				if stats.Skippable != refSkippable {
					return &Mismatch{
						Config: config,
						Query:  -1,
						SQL:    "skippable-firing count must be knob-independent",
						Got:    []string{fmt.Sprintf("skippable %d", stats.Skippable)},
						Want:   []string{fmt.Sprintf("skippable %d as in %s", refSkippable, refConfig)},
					}, nil
				}
				if diff := reportDiff(ref, rep); diff != "" {
					return &Mismatch{
						Config: config,
						Query:  -1,
						SQL:    "modeled work must be reuse-invariant",
						Got:    []string{fmt.Sprintf("%s: %s", config, diff)},
						Want:   []string{fmt.Sprintf("report identical to %s", refConfig)},
					}, nil
				}
			}
		}
	}
	// Worker-invariance: the parallel scheduler must not change results.
	for _, workers := range opts.Workers {
		paces := randPaces(shared)
		config := fmt.Sprintf("shared/workers=%d/paces=%v", workers, paces)
		if m, err := run(config, shared, paces, workers); m != nil || err != nil {
			return m, err
		}
	}
	// Scheduler-invariance: the wall-clock runtime — windowed ingestion,
	// virtual-clock pacing and mid-run pace degradation — must reach the
	// same trigger-point results as a plain batch run.
	if opts.Scheduler {
		paces := randPaces(shared)
		windows := 1 + r.Intn(2)
		workers := opts.Workers[r.Intn(len(opts.Workers))]
		config := fmt.Sprintf("sched/windows=%d/workers=%d/paces=%v", windows, workers, paces)
		s, err := sched.New(shared, paces, sched.Slices{Data: data, N: windows}, sched.Config{
			Window:  time.Second,
			Windows: windows,
			Clock:   sched.NewVirtualClock(time.Unix(0, 0)),
			// A modest rate plus zero deadlines guarantees misses, so the
			// degradation policy runs and is covered by the comparison.
			WorkRate:  50_000,
			Deadlines: make([]time.Duration, len(queries)),
			Workers:   workers,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", config, err)
		}
		if _, err := s.Run(); err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", config, err)
		}
		for q := range queries {
			got := Canon(s.Results(q))
			if !eqStrings(got, want[q]) {
				return &Mismatch{Config: config, Query: q, SQL: w.SQL[q], Got: got, Want: want[q]}, nil
			}
		}
	}
	// Churn-invariance: admitting and retiring queries on the live plan
	// must be observationally identical to a from-scratch run.
	if opts.Churn && w.Churn != nil {
		if m, err := checkChurn(w, queries, data, opts.Reattached); m != nil || err != nil {
			return m, err
		}
	}
	if !opts.Decompose {
		return nil, nil
	}
	// Decomposition-invariance: unsharing subplans must not change results.
	decompositions := []struct {
		name    string
		classes func(sig string, q int) int
		cut     func(*mqo.Op) bool
	}{
		{name: "unshared", classes: func(sig string, q int) int { return q }},
		{name: "partitioned", classes: randomPartition(r, len(queries))},
		{name: "agg-cuts", cut: func(o *mqo.Op) bool { return o.Kind == mqo.KindAggregate }},
	}
	for _, d := range decompositions {
		g, err := buildGraph(mqo.BuildOptions{Classes: d.classes}, d.cut)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s build: %w", d.name, err)
		}
		paces := randPaces(g)
		config := fmt.Sprintf("%s/paces=%v", d.name, paces)
		if m, err := run(config, g, paces, 0); m != nil || err != nil {
			return m, err
		}
	}
	return nil, nil
}

// randomPartition assigns each query to one of two sharing classes.
func randomPartition(r *rand.Rand, n int) func(sig string, q int) int {
	classes := make([]int, n)
	for i := range classes {
		classes[i] = r.Intn(2)
	}
	return func(sig string, q int) int { return classes[q] }
}

func make1s(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// reportDiff describes the first modeled-work divergence between two run
// reports, or "" when every work number matches.
func reportDiff(a, b *exec.Report) string {
	if a.TotalWork != b.TotalWork {
		return fmt.Sprintf("TotalWork %d != %d", b.TotalWork, a.TotalWork)
	}
	if !eqInt64s(a.SubplanTotal, b.SubplanTotal) {
		return fmt.Sprintf("SubplanTotal %v != %v", b.SubplanTotal, a.SubplanTotal)
	}
	if !eqInt64s(a.SubplanFinal, b.SubplanFinal) {
		return fmt.Sprintf("SubplanFinal %v != %v", b.SubplanFinal, a.SubplanFinal)
	}
	if !eqInt64s(a.QueryFinal, b.QueryFinal) {
		return fmt.Sprintf("QueryFinal %v != %v", b.QueryFinal, a.QueryFinal)
	}
	return ""
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
