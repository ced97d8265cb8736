package ishare

// The two whole-job benchmarks `make profile` profiles. Measurement belongs to
// the repository benchmark (bash bench/run.sh); the paper's figures and
// tables are regenerated — and asserted — by cmd/ishare -experiment and the
// tests in internal/experiments.

import (
	"testing"

	"ishare/internal/opt"
	"ishare/internal/tpch"
)

// benchMaxPace is the repository benchmark's MaxPace.
const benchMaxPace = 40

// BenchmarkPlanJob measures one whole planning job, the operation of the
// repository benchmark's optimizer-bound workload: the 22 queries as SQL text
// → tpch.Bind → opt.AbsoluteConstraints → opt.Plan(IShare, MaxPace 40,
// Workers 1). Query q gets relative constraint level (q+i) mod 4 in
// iteration i, so consecutive iterations search different paces. `make
// profile` profiles it.
func BenchmarkPlanJob(b *testing.B) {
	const sf = 0.02
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, err := tpch.Bind(tpch.All(), cat, false)
		if err != nil {
			b.Fatal(err)
		}
		rel := make([]float64, len(bound))
		for q := range rel {
			rel[q] = levels[(q+i)%len(levels)]
		}
		abs, err := opt.AbsoluteConstraints(bound, rel)
		if err != nil {
			b.Fatal(err)
		}
		req := opt.Request{Queries: bound, Constraints: abs, MaxPace: benchMaxPace, Workers: 1}
		if _, err := opt.Plan(opt.IShare, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecJob measures the executor's share of one job of the
// repository benchmark's executor-bound workload: the 22 queries at SF 2
// (177k insert-only rows), query q at relative constraint level q mod 4,
// planned once by opt.Plan(IShare, MaxPace 40) outside the timer; each
// iteration is one opt.Execute: a fresh exec.Runner per planned job, run at
// the planned paces. `make profile PROFILE_BENCH=ExecJob` profiles it.
func BenchmarkExecJob(b *testing.B) {
	const sf = 2
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		b.Fatal(err)
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	rel := make([]float64, len(bound))
	for q := range rel {
		rel[q] = levels[q%len(levels)]
	}
	abs, err := opt.AbsoluteConstraints(bound, rel)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: abs, MaxPace: benchMaxPace, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := tpch.Generate(sf, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Execute(planned, data, len(bound), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
