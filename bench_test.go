package ishare

// The whole-job benchmarks `make profile` profiles. Measurement belongs to
// the repository benchmark (bash bench/run.sh); the paper's figures and
// tables are regenerated — and asserted — by cmd/ishare -experiment and the
// tests in internal/experiments.

import (
	"fmt"
	"math/rand"
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

// BenchmarkChurnGraft measures what admission costs the executor, the graft,
// on the repository benchmark's live-admission workload shape: a Session
// serving dashboard queries over two fact streams (clicks and payments, plus
// a users dimension) holds 30 windows of history, and each iteration admits
// one more filtered aggregate over clicks and retires it again, so every
// iteration grafts over the same history. `make profile
// PROFILE_BENCH=ChurnGraft` profiles it.
func BenchmarkChurnGraft(b *testing.B) {
	const (
		windows = 30
		clicks  = 2000
		users   = 2000
	)
	countries := []string{"US", "DE", "JP", "BR", "IN"}
	methods := []string{"card", "wire", "wallet", "invoice"}
	eng := NewEngine()
	for _, t := range []TableSchema{
		{Name: "clicks", ExpectedRows: clicks, Columns: []Column{
			{Name: "user_id", Type: Int, Distinct: users},
			{Name: "page", Type: String, Distinct: 50},
			{Name: "country", Type: String, Distinct: float64(len(countries))},
			{Name: "ms", Type: Float, Distinct: 1000, Min: 1, Max: 5000},
		}},
		{Name: "payments", ExpectedRows: clicks / 5, Columns: []Column{
			{Name: "payer", Type: Int, Distinct: users},
			{Name: "method", Type: String, Distinct: float64(len(methods))},
			{Name: "amount", Type: Float, Distinct: 1000, Min: 1, Max: 500},
		}},
		{Name: "users", ExpectedRows: users, Columns: []Column{
			{Name: "uid", Type: Int, Distinct: users},
			{Name: "tier", Type: String, Distinct: 4},
		}},
	} {
		if err := eng.CreateTable(t); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range []struct{ name, sql string }{
		{"views_us", "SELECT page, COUNT(*) AS n FROM clicks WHERE country = 'US' GROUP BY page"},
		{"speed_de", "SELECT page, AVG(ms) AS avg_ms FROM clicks WHERE country = 'DE' GROUP BY page"},
		{"tiers_jp", "SELECT tier, COUNT(*) AS n FROM clicks, users WHERE user_id = uid AND country = 'JP' GROUP BY tier"},
		{"payers_card", "SELECT payer, COUNT(*) AS n FROM payments WHERE method = 'card' GROUP BY payer"},
		{"paid_tiers_wire", "SELECT tier, SUM(amount) AS total FROM payments, users WHERE payer = uid AND method = 'wire' GROUP BY tier"},
		{"big_payments", "SELECT method, COUNT(*) AS n FROM payments WHERE amount > 250 GROUP BY method"},
	} {
		if err := eng.AddQuery(q.name, q.sql, 0.5); err != nil {
			b.Fatal(err)
		}
	}
	sess, err := eng.StartSession(Options{MaxPace: benchMaxPace})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < windows; w++ {
		data := map[string][]Row{}
		if w == 0 {
			for u := 0; u < users; u++ {
				data["users"] = append(data["users"], Row{u, fmt.Sprint("tier", u%4)})
			}
		}
		for i := 0; i < clicks; i++ {
			data["clicks"] = append(data["clicks"], Row{rng.Intn(users), fmt.Sprint("/page/", rng.Intn(50)),
				countries[rng.Intn(len(countries))], float64(1 + rng.Intn(5000))})
		}
		for i := 0; i < clicks/5; i++ {
			data["payments"] = append(data["payments"], Row{rng.Intn(users), methods[rng.Intn(len(methods))],
				float64(1+rng.Intn(50000)) / 100})
		}
		if _, err := sess.Step(data); err != nil {
			b.Fatal(err)
		}
	}
	const admitted = "SELECT page, MAX(ms) AS worst FROM clicks WHERE country = 'BR' GROUP BY page"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Admit("worst_br", admitted, 0.5); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Retire("worst_br"); err != nil {
			b.Fatal(err)
		}
	}
}
