package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/oracle"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/value"
)

const (
	// checkSF is the scale at which results are compared against the naive
	// evaluator, whose nested-loop joins are quadratic.
	checkSF = 0.02
	// maxPace is J for every planned workload.
	maxPace = 40
	// checkMaxPace keeps the check-scale job's planning short: the gate
	// tests results, which no pace changes.
	checkMaxPace = 8
)

// relLevels are the paper's relative final-work constraints (§5.1).
var relLevels = []float64{1.0, 0.5, 0.2, 0.1}

// tpchJobs is the closed-loop, one-client workload shared by plan_tight22
// and exec_batch22: every operation is one whole job over the 22 adapted
// TPC-H queries — SQL text in, every query's result rows out.
type tpchJobs struct {
	sf float64
	// jobs is the operation count.
	jobs int
	// distinct gives every job its own seeded constraint draw; otherwise
	// all jobs repeat fixedRels.
	distinct bool

	queries    []tpch.Query
	cat        *catalog.Catalog
	data       exec.Dataset
	rels       [][]float64    // per job
	ref        [][]value.Row  // per query, at run scale
	batchFinal []int64        // per query: measured final work alone at batch pace
	gate       outcome        // what the set-up correctness gate attempted
	last       []*exec.Runner // the latest job's executors
}

func (w *tpchJobs) retained() interface{} { return w.last }

// drawRels makes the per-job relative constraints in blocks of four jobs: a
// block draws one level per query and each of its jobs rotates every query
// one level on, so every job differs from every other (a plan cache keyed on
// the query set cannot help) while each query meets each level equally often
// — which keeps the run's total planning effort, unlike that of independent
// draws, nearly the same from seed to seed.
func drawRels(rng *rand.Rand, jobs, queries int) [][]float64 {
	rels := make([][]float64, jobs)
	base := make([]int, queries)
	for j := range rels {
		if j%len(relLevels) == 0 {
			for q := range base {
				base[q] = rng.Intn(len(relLevels))
			}
		}
		rels[j] = make([]float64, queries)
		for q := range rels[j] {
			rels[j][q] = relLevels[(base[q]+j)%len(relLevels)]
		}
	}
	return rels
}

// fixedRels is the one constraint vector of the workloads that repeat one
// plan: query q gets level q mod 4. It does not depend on the seed — which
// query has the tight goal changes the paces, and with them a run's work by
// 5 % and its latency by 30 %, so a seeded draw would measure the draw.
func fixedRels(queries int) []float64 {
	rel := make([]float64, queries)
	for q := range rel {
		rel[q] = relLevels[q%len(relLevels)]
	}
	return rel
}

func (w *tpchJobs) setup(seed int64) error {
	w.queries = tpch.All()
	if w.distinct {
		w.rels = drawRels(rand.New(rand.NewSource(seed)), w.jobs, len(w.queries))
	} else {
		w.rels = make([][]float64, w.jobs)
		for j := range w.rels {
			w.rels[j] = fixedRels(len(w.queries))
		}
	}
	w.gate = outcome{}

	// Check scale: the engine alone and one whole shared job, both against
	// the independent naive evaluator.
	small := &tpchJobs{sf: checkSF, queries: w.queries}
	var err error
	if small.cat, err = tpch.NewCatalog(checkSF); err != nil {
		return err
	}
	small.data = tpch.Generate(checkSF, seed)
	bound, err := tpch.Bind(w.queries, small.cat, false)
	if err != nil {
		return err
	}
	tables := map[string][]value.Row(small.data)
	small.ref = make([][]value.Row, len(bound))
	for q := range bound {
		small.ref[q] = oracle.Eval(bound[q].Root, tables, nil)
	}
	alone, finals, err := aloneAtBatchPace(bound, exec.InsertStream(small.data))
	if err != nil {
		return err
	}
	small.batchFinal = finals
	w.gate.attempted++
	for q := range bound {
		if !sameRows(alone[q], small.ref[q]) {
			w.gate.fail("set-up gate: %s alone at batch pace differs from the naive evaluator", bound[q].Name)
			break
		}
	}
	if w.sf == checkSF {
		// Run scale is check scale: every job is compared against the
		// naive evaluator directly.
		w.cat, w.data, w.ref, w.batchFinal = small.cat, small.data, small.ref, small.batchFinal
		return nil
	}
	job := small.job(nil, nil, w.rels[0], checkMaxPace)
	w.gate.add(job.outcome)

	// Run scale: each query executed alone, unshared, at batch pace.
	if w.cat, err = tpch.NewCatalog(w.sf); err != nil {
		return err
	}
	w.data = tpch.Generate(w.sf, seed)
	if bound, err = tpch.Bind(w.queries, w.cat, false); err != nil {
		return err
	}
	w.ref, w.batchFinal, err = aloneAtBatchPace(bound, exec.InsertStream(w.data))
	return err
}

// aloneAtBatchPace executes every query by itself in one batch and returns
// its result rows and measured final work.
func aloneAtBatchPace(queries []plan.Query, data exec.DeltaDataset) ([][]value.Row, []int64, error) {
	rows := make([][]value.Row, len(queries))
	finals := make([]int64, len(queries))
	for i, q := range queries {
		g, err := buildGraph([]plan.Query{q})
		if err != nil {
			return nil, nil, err
		}
		r, err := exec.NewDeltaRunner(g, data)
		if err != nil {
			return nil, nil, err
		}
		rep, err := r.Run(pace.Ones(len(g.Subplans)))
		if err != nil {
			return nil, nil, err
		}
		rows[i], finals[i] = r.Results(0), rep.QueryFinal[0]
	}
	return rows, finals, nil
}

func buildGraph(queries []plan.Query) (*mqo.Graph, error) {
	sp, err := mqo.Build(queries)
	if err != nil {
		return nil, err
	}
	return mqo.Extract(sp)
}

func (w *tpchJobs) run(rec *recorder, lay layers) (*outcome, error) {
	out := &outcome{}
	out.add(w.gate)
	for j := 0; j < w.jobs; j++ {
		rec.setJob(j)
		job := w.job(rec, lay, w.rels[j], maxPace)
		out.add(job.outcome)
		out.opMs = append(out.opMs, job.ms)
	}
	rec.setJob(-1)
	return out, nil
}

type jobResult struct {
	outcome
	ms float64
}

// job runs one whole job. Untraced, it is the pipeline a caller of the
// engine writes: tpch.Bind → opt.AbsoluteConstraints → opt.Plan(IShare) →
// one exec.Runner per planned job → results. Traced, the same stages run as
// the separate public calls opt makes internally, each inside a span, and
// the layers' exported counters are read after each call.
func (w *tpchJobs) job(rec *recorder, lay layers, rel []float64, maxPace int) jobResult {
	var res jobResult
	res.attempted = 1
	t0 := time.Now()
	rec.do("bench", "job", func() {
		err := w.jobStages(rec, lay, rel, maxPace, &res)
		if err != nil {
			res.fail("job: %v", err)
		}
	})
	res.ms = ms(time.Since(t0))
	return res
}

func (w *tpchJobs) jobStages(rec *recorder, lay layers, rel []float64, maxPace int, res *jobResult) (err error) {
	var bound []plan.Query
	lay.add("plan.parse_bind_ms", rec.doMs("plan", "tpch.Bind", func() {
		bound, err = tpch.Bind(w.queries, w.cat, false)
	}))
	if err != nil {
		return err
	}
	lay.add("plan.queries", float64(len(bound)))

	var abs []float64
	lay.add("opt.constraints_ms", rec.doMs("opt", "AbsoluteConstraints", func() {
		if rec == nil {
			abs, err = opt.AbsoluteConstraints(bound, rel)
			return
		}
		abs, err = stagedConstraints(rec, lay, bound, rel)
	}))
	if err != nil {
		return err
	}

	var planned *opt.Planned
	req := opt.Request{Queries: bound, Constraints: abs, MaxPace: maxPace, Workers: 1}
	if rec == nil {
		planned, err = opt.Plan(opt.IShare, req)
	} else {
		planned, err = stagedPlan(rec, lay, req)
	}
	if err != nil {
		return err
	}

	finals := make([]int64, len(bound))
	wrong := "" // the first query whose rows differ; a job fails once
	w.last = w.last[:0]
	for _, pj := range planned.Jobs {
		var r *exec.Runner
		lay.add("exec.build_ms", rec.doMs("exec", "NewRunner", func() {
			r, err = exec.NewRunner(pj.Graph, w.data)
		}))
		if err != nil {
			return err
		}
		w.last = append(w.last, r)
		var rep *exec.Report
		runMs := rec.doMs("exec", "Runner.Run", func() { rep, err = r.Run(pj.Paces) })
		if err != nil {
			return err
		}
		res.totalWork += rep.TotalWork
		rec.do("bench", "check results", func() {
			for local, global := range pj.QueryIDs {
				finals[global] += rep.QueryFinal[local]
				if wrong == "" && !sameRows(r.Results(local), w.ref[global]) {
					wrong = bound[global].Name
				}
			}
		})
		lay.add("exec.run_ms", runMs)
		lay.addRunner(r, pj.Paces)
	}
	if wrong != "" {
		res.fail("job: %s differs from its reference", wrong)
	}
	lay.add("opt.est_total", planned.EstTotal)
	lay.add("opt.goals", float64(len(bound)))
	for q := range bound {
		if float64(finals[q]) > rel[q]*float64(w.batchFinal[q]) {
			lay.add("opt.goal_misses", 1)
		}
	}
	return nil
}

// stagedConstraints is opt.AbsoluteConstraints as its separate layer calls:
// one single-query graph per query (mqo), then the batch cost estimate.
func stagedConstraints(rec *recorder, lay layers, queries []plan.Query, rel []float64) ([]float64, error) {
	graphs := make([]*mqo.Graph, len(queries))
	var err error
	rec.do("mqo", "Build+Extract per query", func() {
		for i, q := range queries {
			if graphs[i], err = buildGraph([]plan.Query{q}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var batch []float64
	lay.add("cost.batch_final_ms", rec.doMs("cost", "BatchFinalWork", func() {
		batch, err = cost.BatchFinalWork(graphs)
	}))
	if err != nil {
		return nil, err
	}
	abs := make([]float64, len(rel))
	for i, r := range rel {
		abs[i] = r * batch[i]
	}
	return abs, nil
}

// stagedPlan is opt.Plan(IShare) as the call it makes: the decomposer, which
// drives the pace search and, through it, the cost model. Those three layers
// call each other synchronously inside this one public call, so from outside
// its span covers all of them; the pace and cost probes apportion it.
func stagedPlan(rec *recorder, lay layers, req opt.Request) (*opt.Planned, error) {
	d := &decompose.Decomposer{
		Queries:     req.Queries,
		Constraints: req.Constraints,
		Opts:        decompose.Options{MaxPace: req.MaxPace, Unshare: true, Partial: true, Workers: req.Workers},
	}
	var res *decompose.Result
	var err error
	planMs := rec.doMs("decompose", "Decomposer.Optimize (drives pace, cost)", func() { res, err = d.Optimize() })
	if err != nil {
		return nil, err
	}
	lay.add("opt.plan_ms", planMs)
	lay.add("decompose.optimize_ms", planMs)
	lay.add("decompose.splits_adopted", float64(d.Accepted))
	lay.add("pace.evals", float64(d.Evals))
	lay.add("cost.sims", float64(res.Model.Sims))
	lay.add("cost.memo_lookups", float64(res.Model.Lookups))
	lay.add("cost.memo_hits", float64(res.Model.Hits))
	ids := make([]int, len(req.Queries))
	for i := range ids {
		ids[i] = i
	}
	return &opt.Planned{
		Approach: opt.IShare,
		Jobs:     []opt.Job{{Graph: res.Graph, Paces: res.Paces, QueryIDs: ids, Model: res.Model}},
		EstTotal: res.Eval.Total,
		Splits:   res.Splits,
	}, nil
}

// probes measures the optimizer's layers in isolation on the first job's
// constraints: a traced run only, outside every timed operation.
func (w *tpchJobs) probes(rec *recorder, lay layers) error {
	bound, err := tpch.Bind(w.queries, w.cat, false)
	if err != nil {
		return err
	}
	abs, err := opt.AbsoluteConstraints(bound, w.rels[0])
	if err != nil {
		return err
	}
	return optimizerProbes(rec, lay, bound, abs)
}

// optimizerProbes fills the mqo, cost, pace and decompose probe metrics for
// one query set under one constraint vector.
func optimizerProbes(rec *recorder, lay layers, queries []plan.Query, abs []float64) error {
	var sp *mqo.SharedPlan
	var g *mqo.Graph
	var err error
	lay.set("mqo.build_ms", rec.doMs("mqo", "probe: Build+Extract", func() {
		if sp, err = mqo.Build(queries); err == nil {
			g, err = mqo.Extract(sp)
		}
	}))
	if err != nil {
		return err
	}
	lay.set("mqo.ops", float64(len(sp.Ops)))
	lay.set("mqo.shared_ops", float64(sp.SharedOpCount()))
	lay.set("mqo.subplans", float64(len(g.Subplans)))

	// cost: a seeded set of pace vectors through a fresh, then a warmed model.
	const vectors = 64
	rng := rand.New(rand.NewSource(int64(len(g.Subplans))))
	paces := make([][]int, vectors)
	for i := range paces {
		paces[i] = pace.Ones(len(g.Subplans))
		for s := range paces[i] {
			paces[i][s] = 1 + rng.Intn(maxPace)
		}
		for _, s := range g.Subplans { // no parent may out-pace a child
			for _, c := range s.Children {
				if paces[i][s.ID] > paces[i][c.ID] {
					paces[i][s.ID] = paces[i][c.ID]
				}
			}
		}
	}
	m := cost.NewModel(g)
	evalAll := func(name string) (float64, error) {
		var err error
		d := rec.doMs("cost", name, func() {
			for _, p := range paces {
				if _, err = m.Evaluate(p); err != nil {
					return
				}
			}
		})
		return d * 1000 / vectors, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cold, err := evalAll("probe: Evaluate x64 cold")
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	lay.set("cost.eval_cold_us", cold)
	if m.Sims > 0 {
		lay.set("cost.allocs_per_sim", float64(after.Mallocs-before.Mallocs)/float64(m.Sims))
	}
	warm, err := evalAll("probe: Evaluate x64 warm")
	if err != nil {
		return err
	}
	lay.set("cost.eval_warm_us", warm)

	// pace: the greedy search on the undecomposed graph, sequential and
	// with one worker per CPU.
	search := func(workers int) (float64, *pace.Optimizer, *cost.Model, error) {
		m := cost.NewModel(g)
		o, err := pace.NewOptimizer(m, abs, maxPace)
		if err != nil {
			return 0, nil, nil, err
		}
		o.Workers = workers
		d := rec.doMs("pace", fmt.Sprintf("probe: Greedy workers=%d (drives cost)", workers), func() { _, _, err = o.Greedy() })
		return d, o, m, err
	}
	seqMs, o, sm, err := search(1)
	if err != nil {
		return err
	}
	lay.set("pace.search_ms", seqMs)
	lay.set("pace.steps", float64(o.Steps))
	if o.Evals > 0 {
		lay.set("pace.sims_per_eval", float64(sm.Sims)/float64(o.Evals))
	}
	ncpu := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(ncpu)
	parMs, _, _, err := search(ncpu)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	lay.set("pace.parallel_speedup", seqMs/parMs)

	// decompose: what unsharing adds on top of the pace search.
	req := opt.Request{Queries: queries, Constraints: abs, MaxPace: maxPace, Workers: 1}
	planMs := func(a opt.Approach) (float64, error) {
		var err error
		d := rec.doMs("opt", "probe: Plan "+a.String(), func() { _, err = opt.Plan(a, req) })
		return d, err
	}
	with, err := planMs(opt.IShare)
	if err != nil {
		return err
	}
	without, err := planMs(opt.IShareNoUnshare)
	if err != nil {
		return err
	}
	lay.set("decompose.extra_ms", with-without)
	return nil
}
