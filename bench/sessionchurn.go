package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ishare"
	"ishare/internal/catalog"
	"ishare/internal/exec"
	"ishare/internal/opt"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// sessionChurn is the live-admission workload: a dashboard's worth of
// overlapping queries over a click stream and a payment stream, served by a
// Session through the public facade only, with one query admitted and the
// oldest retired after every second window. Two streams, because a query's
// admission changes the query set of every operator over the stream it
// reads: a plan over one stream alone would rebuild and replay everything on
// every admission and never carry state or cost-model memo entries over.
type sessionChurn struct {
	// rows is the clicks arriving per window; payments arrive at a fifth of
	// that rate.
	windows, rows, live int

	family []dashQuery // see dashSequence
	users  []value.Row
	// clicks and payments hold the whole streams, window after window;
	// facade holds every window's arrivals again in the form Session.Step
	// takes them, converted in set-up so that the timed region is the
	// engine's alone.
	clicks, payments []value.Row
	facade           []map[string][]ishare.Row
	// refAdmit[k] is the k-th admitted query's reference result right after
	// its admission; refEnd[name] every finally live query's at the end.
	refAdmit [][]value.Row
	refEnd   map[string][]value.Row
	gate     outcome
	last     interface{} // the latest run's session or executor
}

func (w *sessionChurn) retained() interface{} { return w.last }

// churnEvery is the number of windows between admissions.
const churnEvery = 2

type dashQuery struct {
	name, sql string
	rel       float64
}

var (
	dashCountries = []string{"US", "DE", "JP", "BR", "IN", "FR", "GB", "CA", "AU", "NL"}
	dashTiers     = []string{"free", "pro", "team", "enterprise"}
	dashMethods   = []string{"card", "wire", "wallet", "invoice"}
)

const (
	dashUsers = 20000
	dashPages = 50
	dashMaxMs = 5000
	// dashPaymentShare is how many clicks arrive per payment.
	dashPaymentShare = 5
	dashMaxAmount    = 500
)

func dashPage(i int) string { return fmt.Sprintf("/page/%02d", i) }

// dashTemplate is one kind of dashboard panel: a query text over one
// parameter.
type dashTemplate struct {
	name, sql string
	params    []string
}

func steps(from, to, by int) []string {
	var out []string
	for v := from; v < to; v += by {
		out = append(out, fmt.Sprint(v))
	}
	return out
}

func pages() []string {
	var out []string
	for p := 0; p < dashPages; p++ {
		out = append(out, dashPage(p))
	}
	return out
}

// dashTemplates are filters, group-bys and joins that overlap pairwise, so
// the shared plan has something to share. Every parameter of a template
// selects about the same share of the stream, so which one a query gets
// changes the rows it sees but not what it costs.
var dashTemplates = []dashTemplate{
	{"views", "SELECT page, COUNT(*) AS n FROM clicks WHERE country = '%s' GROUP BY page", dashCountries},
	{"payers", "SELECT payer, COUNT(*) AS n FROM payments WHERE method = '%s' GROUP BY payer", dashMethods},
	{"speed", "SELECT page, AVG(ms) AS avg_ms FROM clicks WHERE country = '%s' GROUP BY page", dashCountries},
	{"tiers", "SELECT tier, COUNT(*) AS n FROM clicks, users WHERE user_id = uid AND country = '%s' GROUP BY tier", dashCountries},
	{"largest", "SELECT MAX(t) AS top FROM (SELECT SUM(amount) AS t FROM payments WHERE method = '%s' GROUP BY payer) x", dashMethods},
	{"top_spender", "SELECT MAX(t) AS top FROM (SELECT SUM(purchase) AS t FROM clicks WHERE country = '%s' GROUP BY user_id) x", dashCountries},
	{"slow_revenue", "SELECT country, SUM(purchase) AS rev FROM clicks WHERE ms > %s GROUP BY country", steps(2450, 2550, 10)},
	{"paid_tiers", "SELECT tier, SUM(amount) AS total FROM payments, users WHERE payer = uid AND method = '%s' GROUP BY tier", dashMethods},
	{"worst_page", "SELECT country, MAX(ms) AS worst FROM clicks WHERE page = '%s' GROUP BY country", pages()},
	{"big_payments", "SELECT method, COUNT(*) AS n FROM payments WHERE amount > %s GROUP BY method", steps(245, 255, 1)},
}

// dashSequence is the run's query sequence: the first live queries start
// the session and the rest are admitted in turn, each retiring the oldest.
// Templates rotate, and every round of templates moves each parameter domain
// one value on, so the live mix — which queries share a filter, what a step
// or an admission costs — is the same whatever the seed; the seed draws
// where each domain starts and where the constraint levels start.
func dashSequence(rng *rand.Rand, n int) []dashQuery {
	start := map[string]int{} // per domain, keyed by its first value
	for _, t := range dashTemplates {
		if _, drawn := start[t.params[0]]; !drawn {
			start[t.params[0]] = rng.Intn(len(t.params))
		}
	}
	level := rng.Intn(len(relLevels))
	qs := make([]dashQuery, n)
	for i := range qs {
		t := dashTemplates[i%len(dashTemplates)]
		param := t.params[(start[t.params[0]]+i/len(dashTemplates))%len(t.params)]
		name := t.name + "_" + strings.NewReplacer("/", "", ".", "").Replace(param)
		qs[i] = dashQuery{name: name, sql: fmt.Sprintf(t.sql, param), rel: relLevels[(level+i)%len(relLevels)]}
	}
	return qs
}

// dashSchemas declares the tables as the facade takes them.
func dashSchemas(rowsPerWindow int) []ishare.TableSchema {
	return []ishare.TableSchema{
		{
			Name: "clicks",
			Columns: []ishare.Column{
				{Name: "user_id", Type: ishare.Int, Distinct: dashUsers},
				{Name: "page", Type: ishare.String, Distinct: dashPages},
				{Name: "country", Type: ishare.String, Distinct: float64(len(dashCountries))},
				{Name: "ms", Type: ishare.Float, Distinct: 1000, Min: 1, Max: dashMaxMs},
				{Name: "purchase", Type: ishare.Float},
			},
			ExpectedRows: float64(rowsPerWindow),
		},
		{
			Name: "payments",
			Columns: []ishare.Column{
				{Name: "payer", Type: ishare.Int, Distinct: dashUsers},
				{Name: "method", Type: ishare.String, Distinct: float64(len(dashMethods))},
				{Name: "amount", Type: ishare.Float, Distinct: 1000, Min: 1, Max: dashMaxAmount},
			},
			ExpectedRows: float64(rowsPerWindow / dashPaymentShare),
		},
		{
			Name: "users",
			Columns: []ishare.Column{
				{Name: "uid", Type: ishare.Int, Distinct: dashUsers},
				{Name: "tier", Type: ishare.String, Distinct: float64(len(dashTiers))},
			},
			ExpectedRows: dashUsers,
		},
	}
}

func dashEngine(rowsPerWindow int) (*ishare.Engine, error) {
	eng := ishare.NewEngine()
	for _, s := range dashSchemas(rowsPerWindow) {
		if err := eng.CreateTable(s); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// dashCatalog is the same tables as an internal catalog, for binding a
// query outside the facade: the naive evaluator and the staged pipeline need
// the bound plan, which the facade keeps to itself.
func dashCatalog(rowsPerWindow int) (*catalog.Catalog, error) {
	kinds := map[ishare.Type]value.Kind{ishare.Int: value.KindInt, ishare.Float: value.KindFloat, ishare.String: value.KindString}
	cat := catalog.New()
	for _, s := range dashSchemas(rowsPerWindow) {
		t := &catalog.Table{Name: s.Name, Stats: catalog.TableStats{RowCount: s.ExpectedRows, Columns: map[string]catalog.ColumnStats{}}}
		for _, c := range s.Columns {
			t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: kinds[c.Type]})
			st := catalog.ColumnStats{Distinct: c.Distinct}
			if st.Distinct == 0 {
				st.Distinct = s.ExpectedRows
			}
			if c.Min != 0 || c.Max != 0 {
				st.Min, st.Max = value.Float(c.Min), value.Float(c.Max)
			}
			t.Stats.Columns[c.Name] = st
		}
		if err := cat.Add(t); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

func dashData(rng *rand.Rand, windows, rowsPerWindow int) (users, clicks, payments []value.Row) {
	for u := 0; u < dashUsers; u++ {
		users = append(users, value.Row{value.Int(int64(u)), value.Str(dashTiers[rng.Intn(len(dashTiers))])})
	}
	for w := 0; w < windows; w++ {
		for i := 0; i < rowsPerWindow/dashPaymentShare; i++ {
			payments = append(payments, value.Row{
				value.Int(int64(rng.Intn(dashUsers))),
				value.Str(dashMethods[rng.Intn(len(dashMethods))]),
				value.Float(float64(1+rng.Intn(dashMaxAmount*100)) / 100),
			})
		}
		for i := 0; i < rowsPerWindow; i++ {
			purchase := 0.0
			if rng.Intn(20) == 0 {
				purchase = float64(rng.Intn(20000)) / 100
			}
			clicks = append(clicks, value.Row{
				value.Int(int64(rng.Intn(dashUsers))),
				value.Str(dashPage(rng.Intn(dashPages))),
				value.Str(dashCountries[rng.Intn(len(dashCountries))]),
				value.Float(float64(1 + rng.Intn(dashMaxMs))),
				value.Float(purchase),
			})
		}
	}
	return users, clicks, payments
}

func facadeRows(rows []value.Row) []ishare.Row {
	out := make([]ishare.Row, len(rows))
	for i, r := range rows {
		fr := make(ishare.Row, len(r))
		for j, v := range r {
			switch v.K {
			case value.KindInt:
				fr[j] = v.I
			case value.KindFloat:
				fr[j] = v.F
			case value.KindString:
				fr[j] = v.S
			}
		}
		out[i] = fr
	}
	return out
}

func valueRows(rows []ishare.Row) []value.Row {
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		vr := make(value.Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case int64:
				vr[j] = value.Int(x)
			case float64:
				vr[j] = value.Float(x)
			case string:
				vr[j] = value.Str(x)
			case bool:
				vr[j] = value.Bool(x)
			}
		}
		out[i] = vr
	}
	return out
}

// windowData is what arrives in window win: its clicks and payments, and in
// the first window the users dimension.
func (w *sessionChurn) windowData(win int) exec.Dataset {
	c, p := w.rows, w.rows/dashPaymentShare
	ds := exec.Dataset{"clicks": w.clicks[win*c : (win+1)*c], "payments": w.payments[win*p : (win+1)*p]}
	if win == 0 {
		ds["users"] = w.users
	}
	return ds
}

// arrived is everything that has arrived up to and including window win.
func (w *sessionChurn) arrived(win int) exec.Dataset {
	c, p := w.rows, w.rows/dashPaymentShare
	return exec.Dataset{"clicks": w.clicks[:(win+1)*c], "payments": w.payments[:(win+1)*p], "users": w.users}
}

// admitted returns the k-th admission's query; the session's starting
// queries are admissions -live to -1.
func (w *sessionChurn) admitted(k int) dashQuery { return w.family[w.live+k] }

func (w *sessionChurn) admissions() int { return w.windows / churnEvery }

func (w *sessionChurn) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.family = dashSequence(rng, w.live+w.admissions())
	w.gate = outcome{}

	// Check scale: a two-window slice with one admission and one retirement
	// through the facade, every live query against the naive evaluator.
	small := &sessionChurn{windows: churnEvery, rows: 200, live: w.live, family: w.family[:w.live+1]}
	small.users, small.clicks, small.payments = dashData(rng, small.windows, small.rows)
	if err := small.references(func(cat *catalog.Catalog, q dashQuery, data exec.Dataset) ([]value.Row, error) {
		bound, err := plan.ParseAndBindQuery(q.name, q.sql, cat)
		if err != nil {
			return nil, err
		}
		return bound.Present.Apply(oracle.Eval(bound.Root, data, nil)), nil
	}); err != nil {
		return err
	}
	run, err := small.facadeRun()
	if err != nil {
		return err
	}
	w.gate.add(*run)

	// Run scale: each query executed alone, unshared, at batch pace.
	w.users, w.clicks, w.payments = dashData(rng, w.windows, w.rows)
	return w.references(func(cat *catalog.Catalog, q dashQuery, data exec.Dataset) ([]value.Row, error) {
		bound, err := plan.ParseAndBindQuery(q.name, q.sql, cat)
		if err != nil {
			return nil, err
		}
		rows, _, err := aloneAtBatchPace([]plan.Query{bound}, exec.InsertStream(data))
		if err != nil {
			return nil, err
		}
		return bound.Present.Apply(rows[0]), nil
	})
}

// references converts the streams for the facade and computes, with the
// given evaluator, the result every check of the run compares against.
func (w *sessionChurn) references(eval func(*catalog.Catalog, dashQuery, exec.Dataset) ([]value.Row, error)) error {
	w.facade = make([]map[string][]ishare.Row, w.windows)
	for win := range w.facade {
		w.facade[win] = map[string][]ishare.Row{}
		for name, rows := range w.windowData(win) {
			w.facade[win][name] = facadeRows(rows)
		}
	}
	cat, err := dashCatalog(w.rows)
	if err != nil {
		return err
	}
	w.refAdmit = make([][]value.Row, w.admissions())
	for k := range w.refAdmit {
		if w.refAdmit[k], err = eval(cat, w.admitted(k), w.arrived((k+1)*churnEvery-1)); err != nil {
			return err
		}
	}
	all := w.arrived(w.windows - 1)
	w.refEnd = map[string][]value.Row{}
	for _, q := range w.liveAtEnd() {
		if w.refEnd[q.name], err = eval(cat, q, all); err != nil {
			return err
		}
	}
	return nil
}

// liveAtEnd lists the queries live after the last admission and retirement:
// the most recently started or admitted w.live of them.
func (w *sessionChurn) liveAtEnd() []dashQuery {
	var qs []dashQuery
	for i := w.admissions(); i < w.admissions()+w.live; i++ {
		qs = append(qs, w.admitted(i-w.live))
	}
	return qs
}

func (w *sessionChurn) run(rec *recorder, lay layers) (*outcome, error) {
	var out *outcome
	var err error
	if rec == nil {
		out, err = w.facadeRun()
	} else {
		out, err = w.stagedRun(rec, lay)
	}
	if err != nil {
		return nil, err
	}
	out.add(w.gate)
	return out, nil
}

// facadeRun drives the session through the public API only. The principal
// operation is Session.Step; admissions and retirements are operations too
// (they can fail) but are not part of its latency sample — their cost shows
// in cpu_s.
func (w *sessionChurn) facadeRun() (*outcome, error) {
	eng, err := dashEngine(w.rows)
	if err != nil {
		return nil, err
	}
	for k := -w.live; k < 0; k++ {
		q := w.admitted(k)
		if err := eng.AddQuery(q.name, q.sql, q.rel); err != nil {
			return nil, err
		}
	}
	s, err := eng.StartSession(ishare.Options{MaxPace: maxPace, OptWorkers: 1})
	if err != nil {
		return nil, err
	}
	w.last = s
	out := &outcome{}
	check := func(q dashQuery, want []value.Row) {
		got, err := s.Results(q.name)
		if err != nil {
			out.fail("%s: %v", q.name, err)
		} else if !sameRows(valueRows(got), want) {
			out.fail("%s differs from its reference", q.name)
		}
	}
	for win := 0; win < w.windows; win++ {
		out.attempted++
		t0 := time.Now()
		_, err := s.Step(w.facade[win])
		out.opMs = append(out.opMs, ms(time.Since(t0)))
		if err != nil {
			out.fail("step %d: %v", win, err)
		}
		if (win+1)%churnEvery != 0 {
			continue
		}
		k := (win+1)/churnEvery - 1
		q := w.admitted(k)
		out.attempted++
		if _, err := s.Admit(q.name, q.sql, q.rel); err != nil {
			out.fail("admit %s: %v", q.name, err)
		} else {
			check(q, w.refAdmit[k])
		}
		out.attempted++
		if _, err := s.Retire(w.admitted(k - w.live).name); err != nil {
			out.fail("retire: %v", err)
		}
	}
	for _, q := range w.liveAtEnd() {
		out.attempted++
		check(q, w.refEnd[q.name])
	}
	out.totalWork = s.TotalWork()
	return out, nil
}

// stagedRun drives the same schedule through the calls the facade's Session
// makes — parse and bind, constraints, opt.Live, exec.Runner with Graft —
// each inside a span.
func (w *sessionChurn) stagedRun(rec *recorder, lay layers) (*outcome, error) {
	cat, err := dashCatalog(w.rows)
	if err != nil {
		return nil, err
	}
	bind := func(q dashQuery) (bound plan.Query, abs float64, err error) {
		lay.add("plan.parse_bind_ms", rec.doMs("plan", "ParseAndBindQuery", func() {
			bound, err = plan.ParseAndBindQuery(q.name, q.sql, cat)
		}))
		if err != nil {
			return
		}
		lay.add("plan.queries", 1)
		var a []float64
		lay.add("opt.constraints_ms", rec.doMs("opt", "AbsoluteConstraints", func() {
			a, err = stagedConstraints(rec, lay, []plan.Query{bound}, []float64{q.rel})
		}))
		if err == nil {
			abs = a[0]
		}
		return
	}
	rec.setJob(0)
	req := opt.Request{MaxPace: maxPace, Workers: 1}
	names := map[string]int{} // live query name → slot
	queries := map[int]plan.Query{}
	for k := -w.live; k < 0; k++ {
		q := w.admitted(k)
		bound, abs, err := bind(q)
		if err != nil {
			return nil, err
		}
		names[q.name] = len(req.Queries)
		queries[len(req.Queries)] = bound
		req.Queries = append(req.Queries, bound)
		req.Constraints = append(req.Constraints, abs)
	}
	var live *opt.Live
	rec.do("opt", "NewLive (drives pace, cost)", func() { live, err = opt.NewLive(req, nil) })
	if err != nil {
		return nil, err
	}
	var runner *exec.Runner
	lay.add("exec.build_ms", rec.doMs("exec", "NewDeltaRunner", func() {
		runner, err = exec.NewDeltaRunner(live.Graph, exec.DeltaDataset{})
	}))
	if err != nil {
		return nil, err
	}

	w.last = runner
	out := &outcome{}
	check := func(name string, want []value.Row) {
		slot := names[name]
		if !sameRows(queries[slot].Present.Apply(runner.Results(slot)), want) {
			out.fail("%s differs from its reference", name)
		}
	}
	var admitMs, retireMs, stepMs, graftMs []float64
	var replayed []int
	graft := func() error {
		var gs *exec.GraftStats
		var err error
		graftMs = append(graftMs, rec.doMs("exec", "Runner.Graft", func() { gs, err = runner.Graft(live.Graph, exec.GraftOptions{}) }))
		if err != nil {
			return err
		}
		lay.add("exec.graft_adopted", float64(gs.Adopted))
		lay.add("exec.graft_rebuilt", float64(gs.Rebuilt))
		replayed = append(replayed, gs.Replayed)
		return nil
	}
	for win := 0; win < w.windows; win++ {
		rec.setJob(win)
		out.attempted++
		firings := len(live.Graph.Subplans)
		d := rec.doMs("exec", "Step: StartWindow, ArriveWindow, RunSubplan each", func() {
			runner.StartWindow(exec.InsertStream(w.windowData(win)))
			runner.ArriveWindow(1, 1)
			for id := 0; id < firings; id++ {
				runner.RunSubplan(id)
			}
		})
		out.opMs = append(out.opMs, d)
		stepMs = append(stepMs, d)
		lay.add("exec.run_ms", d)
		lay.add("exec.firings", float64(firings))
		if (win+1)%churnEvery != 0 {
			continue
		}
		k := (win+1)/churnEvery - 1
		q := w.admitted(k)
		out.attempted++
		t0 := time.Now()
		err := func() error {
			bound, abs, err := bind(q)
			if err != nil {
				return err
			}
			var slot int
			var rep *opt.AdmitReport
			lay.add("opt.live_admit_ms", rec.doMs("opt", "Live.Admit (drives pace, cost)", func() { slot, rep, err = live.Admit(bound, abs) }))
			if err != nil {
				return err
			}
			lay.add("opt.live_sims", float64(rep.Sims))
			lay.add("opt.live_evals", float64(rep.Evals))
			lay.add("opt.live_memo_seeded", float64(rep.MemoSeeded))
			names[q.name], queries[slot] = slot, bound
			return graft()
		}()
		admitMs = append(admitMs, ms(time.Since(t0)))
		if err != nil {
			out.fail("admit %s: %v", q.name, err)
		} else {
			rec.do("bench", "check results", func() { check(q.name, w.refAdmit[k]) })
		}
		out.attempted++
		t0 = time.Now()
		oldest := w.admitted(k - w.live).name
		err = func() error {
			var err error
			lay.add("opt.live_retire_ms", rec.doMs("opt", "Live.Retire (drives pace, cost)", func() { _, err = live.Retire(names[oldest]) }))
			if err != nil {
				return err
			}
			delete(names, oldest)
			return graft()
		}()
		retireMs = append(retireMs, ms(time.Since(t0)))
		if err != nil {
			out.fail("retire %s: %v", oldest, err)
		}
	}
	rec.setJob(-1)
	for _, q := range w.liveAtEnd() {
		out.attempted++
		check(q.name, w.refEnd[q.name])
	}
	out.totalWork = runner.ReportNow().TotalWork

	admits := float64(len(admitMs))
	for _, name := range []string{"opt.live_admit_ms", "opt.live_retire_ms", "opt.live_sims", "opt.live_evals", "opt.live_memo_seeded"} {
		lay.settle(name, admits)
	}
	total := 0
	for _, n := range replayed {
		total += n
	}
	lay.set("exec.graft_ms", median(graftMs))
	lay.set("exec.graft_replayed_windows", float64(total))
	lay.set("session.step_ms_p50", median(stepMs))
	lay.set("session.admit_ms_p50", median(admitMs))
	lay.set("session.retire_ms_p50", median(retireMs))
	lay.addRunnerState(runner)
	lay.settle("buffer.log_entries_end", 1) // one long-lived executor: its end state, not a per-step mean
	lay.settle("exec.arr_entries_end", 1)
	fmt.Printf("  graft replayed windows, first to last graft: %v\n", replayed)
	return out, nil
}

func (w *sessionChurn) probes(rec *recorder, lay layers) error {
	cat, err := dashCatalog(w.rows)
	if err != nil {
		return err
	}
	var queries []plan.Query
	var rel []float64
	for k := -w.live; k < 0; k++ {
		q := w.admitted(k)
		bound, err := plan.ParseAndBindQuery(q.name, q.sql, cat)
		if err != nil {
			return err
		}
		queries, rel = append(queries, bound), append(rel, q.rel)
	}
	abs, err := opt.AbsoluteConstraints(queries, rel)
	if err != nil {
		return err
	}
	return optimizerProbes(rec, lay, queries, abs)
}
