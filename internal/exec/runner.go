package exec

import (
	"fmt"
	"runtime"
	"time"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/trace"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// Dataset holds the rows that arrive for each base table during one trigger
// window, in arrival order (insertions only; use DeltaDataset for streams
// with deletions and updates).
type Dataset map[string][]value.Row

// DeltaDataset holds signed change streams per table: insertions and
// deletions in arrival order. An update is modeled as a deletion of the old
// row followed by an insertion of the new one, as in the paper (§2.3).
type DeltaDataset map[string][]delta.Tuple

// Runner executes a subplan graph over a dataset under a pace
// configuration. A pace k for a subplan means k incremental executions, one
// each time 1/k of the trigger window's data has arrived; pace 1 is batch
// execution at the trigger point.
type Runner struct {
	Graph *mqo.Graph
	Data  DeltaDataset
	Execs []*SubplanExec
	// Trace optionally receives per-execution spans and shared work
	// counters. Spans are recorded only by Run (one worker, so a firing can
	// be bracketed on the caller's goroutine); every other driver — the
	// scheduler runtime records its own canonically ordered spans — feeds
	// order-independent counters only, so traces stay worker-count-invariant.
	Trace *trace.Tracer

	tables   map[string]*buffer.Log
	appended map[string]int
	// windowBase marks, per table, where the current trigger window's
	// stream starts (see StartWindow); zero for single-window Run use.
	windowBase map[string]int

	// opts is the executor configuration in force (see Options); Graft
	// builds fresh executors under it.
	opts Options
	// winData records, at each window seal, the length of every stream in
	// Data (all names, not just scanned tables — a later plan revision may
	// start scanning a table that has been arriving unobserved). Together
	// with each executor's per-seal output marks it lets Graft replay a
	// rebuilt subplan through the exact same window-by-window history a
	// from-scratch run would have seen.
	winData []map[string]int
	// winOpen reports whether deltas have arrived since the last seal.
	winOpen bool

	// reg is the arrangement registry every stateful operator of this
	// runner attaches its indexed state to (see arrange.go).
	reg *Registry
	// lay is Graph's join layouts (layout.go), recomputed by every Graft.
	lay layouts

	// Window-level result reuse (see reuse.go): lineage holds each
	// subplan's scan cone and winClean the per-window clean flags; the
	// counters are atomic because wave-parallel firings hit the gate
	// concurrently.
	lineage        [][]string
	winClean       []bool
	reuseSkippable int64
	reuseSkipped   int64

	// depth is each subplan's dependency depth (see indexGraph); byDepth
	// and depths are RunGroup's wave-partitioning scratch, reset per group.
	depth   []int
	byDepth [][]int
	depths  []int
}

// Options is the executor's whole configuration. The zero value is the
// default: chunks of vec.DefaultBatch tuples, arrangement sharing on, window
// reuse on. Each field selects a physically different path that must be
// observationally identical — same results, same modeled Work — and exists
// because the differential oracle runs the off-path as its reference; none
// is reachable from the facade or the CLI.
type Options struct {
	// Batch is the vectorized chunk size: 0 selects vec.DefaultBatch, a
	// negative value one chunk per input.
	Batch int
	// NoShare keeps every operator's indexed state private instead of
	// attaching same-key state to one shared arrangement (arrange.go).
	NoShare bool
	// NoReuse executes clean-cone firings for real instead of skipping
	// them (reuse.go).
	NoReuse bool
}

func (o Options) batch() int {
	if o.Batch == 0 {
		return vec.DefaultBatch
	}
	return o.Batch
}

// NewRunner builds fresh operator state, buffers and table logs for an
// insert-only dataset.
func NewRunner(g *mqo.Graph, data Dataset) (*Runner, error) {
	return NewDeltaRunner(g, InsertStream(data))
}

// InsertStream converts an insert-only dataset into delta form (every row an
// insertion valid for all queries), preserving arrival order.
func InsertStream(data Dataset) DeltaDataset {
	deltas := make(DeltaDataset, len(data))
	for name, rows := range data {
		ts := make([]delta.Tuple, len(rows))
		for i, row := range rows {
			ts[i] = tupleFor(row)
		}
		deltas[name] = ts
	}
	return deltas
}

// NewDeltaRunner builds a default-Options runner over signed change streams.
func NewDeltaRunner(g *mqo.Graph, data DeltaDataset) (*Runner, error) {
	return New(g, data, Options{})
}

// New builds fresh operator state, buffers and table logs for the graph over
// signed change streams. It is the one general constructor; NewRunner and
// NewDeltaRunner are its zero-Options forms.
func New(g *mqo.Graph, data DeltaDataset, opts Options) (*Runner, error) {
	r := &Runner{
		Graph:      g,
		Data:       data,
		tables:     make(map[string]*buffer.Log),
		appended:   make(map[string]int),
		windowBase: make(map[string]int),
		opts:       opts,
		reg:        NewRegistry(!opts.NoShare),
		lay:        planLayouts(g),
	}
	// A non-empty construction dataset is the first (implicit) window: if
	// the plan is later grafted, that history must be replayable.
	for _, ts := range data {
		if len(ts) > 0 {
			r.winOpen = true
			break
		}
	}
	// Every scanned table needs data (possibly empty).
	for _, s := range g.Subplans {
		for _, o := range s.Scans() {
			name := o.Table.Name
			if _, ok := r.tables[name]; !ok {
				r.tables[name] = buffer.NewLog("table:" + name)
			}
		}
	}
	r.Execs = make([]*SubplanExec, len(g.Subplans))
	for _, s := range g.Subplans { // children-first, so child execs exist
		se, err := newSubplanExec(g, s, r, opts.batch(), r.reg, r.lay)
		if err != nil {
			return nil, err
		}
		r.Execs[s.ID] = se
	}
	r.indexGraph()
	r.computeWinClean() // the construction dataset is the implicit first window
	return r, nil
}

// SetOptions replaces the executor configuration. It must be called between
// windows: reuse is decided per window from the cone dirtiness computed at
// the boundary, and sharing and batch size apply to operators attached from
// now on (the next Graft's fresh executors) — state already shared stays
// shared until its holders release. Switching mid-run must be
// observationally invisible; the churn oracle flips sharing and reuse at
// random window boundaries and requires byte-identical results and reports.
func (r *Runner) SetOptions(opts Options) {
	r.opts = opts
	r.reg.SetShare(!opts.NoShare)
}

// TableLog implements inputResolver.
func (r *Runner) TableLog(name string) (*buffer.Log, error) {
	log, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("exec: no log for table %q", name)
	}
	return log, nil
}

// SubplanLog implements inputResolver.
func (r *Runner) SubplanLog(s *mqo.Subplan) (*buffer.Log, error) {
	se := r.Execs[s.ID]
	if se == nil || se.Sub != s {
		return nil, fmt.Errorf("exec: subplan %d has no executor yet", s.ID)
	}
	return se.Out, nil
}

// Report summarizes one run.
type Report struct {
	// Paces is the executed pace configuration, indexed by subplan id.
	Paces []int
	// SubplanTotal and SubplanFinal hold each subplan's total work across
	// executions and the work of its final execution.
	SubplanTotal []int64
	SubplanFinal []int64
	// TotalWork is the summed work of all incremental executions of all
	// subplans — the paper's proxy for CPU consumption.
	TotalWork int64
	// QueryFinal maps query id to its final work: the summed final
	// execution work of the subplans it participates in — the paper's
	// proxy for query latency.
	QueryFinal []int64
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration
}

// Run executes the configured paces over the full dataset on the calling
// goroutine, recording one tracer span per firing when Trace is set. It must
// be called once per Runner; operator state is not reset between runs.
func (r *Runner) Run(paces []int) (*Report, error) { return r.drive(paces, 1) }

// RunParallel executes the pace configuration like Run, but runs independent
// subplans concurrently: at each arrival fraction the due subplans execute
// in dependency waves on up to workers goroutines (any value < 1 selects
// GOMAXPROCS; resolved here, once). Work accounting and results are
// identical to the sequential Run — the engine's work units are
// deterministic — only wall-clock time changes. The paper's prototype
// similarly spreads each incremental execution over its 20 cores.
func (r *Runner) RunParallel(paces []int, workers int) (*Report, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return r.drive(paces, workers)
}

// drive runs one window's firing sequence group by group on n ≥ 1 workers.
// With one worker every firing is its own group — firing order already runs
// children first — so each can be bracketed by a span.
func (r *Runner) drive(paces []int, n int) (*Report, error) {
	if len(paces) != len(r.Graph.Subplans) {
		return nil, fmt.Errorf("exec: %d paces for %d subplans", len(paces), len(r.Graph.Subplans))
	}
	fs, err := Schedule(paces)
	if err != nil {
		return nil, err
	}
	tr := r.Trace
	spans := tr != nil && n == 1
	pid := 0
	if spans {
		pid = r.traceProcess()
	}
	start := time.Now()
	for lo, hi := 0, 0; lo < len(fs); lo = hi {
		hi = lo + 1
		if n > 1 {
			hi = GroupEnd(fs, lo)
		}
		f := fs[lo]
		r.ArriveWindow(f.Index, f.Pace)
		runStart := tr.Since()
		works, err := r.RunGroup(fs[lo:hi], n, "exec", nil)
		if err != nil {
			return nil, err
		}
		if spans {
			w := works[0]
			tr.Span(pid, 1+f.Subplan, "exec", fmt.Sprintf("run %d/%d", f.Index, f.Pace), runStart, tr.Since(),
				trace.Arg{Key: "tuples", Value: w.Tuples},
				trace.Arg{Key: "output", Value: w.Output},
				trace.Arg{Key: "rescan", Value: w.Rescan},
				trace.Arg{Key: "work", Value: w.Total()})
		}
		for _, w := range works {
			r.CountWork(w)
		}
	}
	r.CountArrangements()
	return r.report(paces, time.Since(start)), nil
}

// CountArrangements publishes the registry's sharing/memory accounting to
// the tracer's counters. The values are end-state gauges, not deltas, so
// callers emit them exactly once per run — Run does it after the last
// firing, and the scheduler runtime after its final window closes. No-op
// without a tracer.
func (r *Runner) CountArrangements() {
	tr := r.Trace
	if tr == nil {
		return
	}
	st := r.reg.Stats()
	tr.Count("exec.arr.live", int64(st.Live))
	tr.Count("exec.arr.handles", int64(st.Handles))
	tr.Count("exec.arr.multiuse", int64(st.MultiUse))
	tr.Count("exec.arr.entries", st.Entries)
	tr.Count("exec.arr.built", st.Built)
	tr.Count("exec.arr.shared_attaches", st.SharedAttaches)
}

// report builds the cumulative modeled-work report.
func (r *Runner) report(paces []int, wall time.Duration) *Report {
	rep := &Report{
		Paces:        append([]int(nil), paces...),
		SubplanTotal: make([]int64, len(r.Execs)),
		SubplanFinal: make([]int64, len(r.Execs)),
		QueryFinal:   make([]int64, r.Graph.Plan.NumQueries()),
		Wall:         wall,
	}
	for i, se := range r.Execs {
		rep.SubplanTotal[i] = se.TotalWork().Total()
		rep.SubplanFinal[i] = se.FinalWork().Total()
		rep.TotalWork += rep.SubplanTotal[i]
	}
	for q := range rep.QueryFinal {
		for _, s := range r.Graph.QuerySubplans(q) {
			rep.QueryFinal[q] += rep.SubplanFinal[s.ID]
		}
	}
	return rep
}

// ReportNow returns the cumulative modeled-work report of everything
// executed so far, without running anything — the windowed (StartWindow /
// RunSubplan) driving mode's equivalent of Run's return value.
func (r *Runner) ReportNow() *Report { return r.report(nil, 0) }

// ArriveWindow appends each table's deltas up to fraction j/p of the current
// window's stream (the construction dataset when StartWindow was never
// called).
func (r *Runner) ArriveWindow(j, p int) {
	for name, log := range r.tables {
		tuples := r.Data[name]
		base := r.windowBase[name]
		target := base + (len(tuples)-base)*j/p
		from := r.appended[name]
		if target > from {
			log.Append(tuples[from:target]...)
			r.appended[name] = target
		}
	}
}

// StartWindow begins a new trigger window: the given deltas are appended to
// each table's stream and become the window's arrivals, and fractions passed
// to ArriveWindow are measured over them alone. Operator and buffer state
// carries over — the engine keeps ingesting, as the paper's recurring
// trigger windows do. The scheduler runtime (internal/sched) and Session
// drive multi-window executions through this; Run and RunParallel consume
// the single window the Runner was constructed with.
func (r *Runner) StartWindow(arrivals DeltaDataset) {
	r.sealWindow()
	r.winOpen = true
	for name := range r.tables {
		r.windowBase[name] = len(r.Data[name])
	}
	for name, ts := range arrivals {
		r.Data[name] = append(r.Data[name], ts...)
	}
	r.computeWinClean()
}

// sealWindow closes the current window for graft bookkeeping: it records
// every stream's current length and every executor's current output length,
// forming one replayable unit of history. No-op when no window is open, so
// empty windows are still sealed exactly once — a rebuilt subplan must
// replay one execution per window even when the window carried no data (the
// per-execution fixed startup cost is part of the modeled work a
// from-scratch run would report).
func (r *Runner) sealWindow() {
	if !r.winOpen {
		return
	}
	r.winOpen = false
	marks := make(map[string]int, len(r.Data))
	for name, ts := range r.Data {
		marks[name] = len(ts)
	}
	r.winData = append(r.winData, marks)
	for _, se := range r.Execs {
		se.winOut = append(se.winOut, se.Out.Len())
	}
	// Arrangements whose last holder released during the window are only
	// reclaimed now that it is sealed — tombstone-style deferred expiry, so
	// in-flight executions never see their state disappear.
	r.reg.Sweep()
}

// RunSubplan performs one bare incremental execution of subplan id and
// returns its work: one firing of RunGroup without the waves or the panic
// recovery, for callers that hand-drive a window (the oracle, the benchmark).
func (r *Runner) RunSubplan(id int) Work { return r.runOnce(id) }

// traceProcess registers the "exec" tracer process and its per-subplan
// thread tracks (tid 1+id) for Run's spans and returns the pid.
func (r *Runner) traceProcess() int {
	pid := r.Trace.Process("exec")
	for _, s := range r.Graph.Subplans {
		r.Trace.Thread(pid, 1+s.ID, fmt.Sprintf("subplan %d", s.ID))
	}
	return pid
}

// CountWork publishes one execution's work to the tracer's shared counters —
// the same attribution path the scheduler runtime's per-subplan metrics use.
// Counter adds commute, so concurrent executions leave totals deterministic.
// No-op without a tracer.
func (r *Runner) CountWork(w Work) {
	tr := r.Trace
	if tr == nil {
		return
	}
	tr.Count("exec.executions", 1)
	tr.Count("exec.tuples", w.Tuples)
	tr.Count("exec.state", w.State)
	tr.Count("exec.output", w.Output)
	if w.Rescan > 0 {
		tr.Count("exec.rescans", 1)
		tr.Count("exec.rescan_work", w.Rescan)
	}
}

// ArrangeStats returns the arrangement registry's current accounting. Not
// safe to call concurrently with running executions.
func (r *Runner) ArrangeStats() ArrangeStats { return r.reg.Stats() }

// TruthStats returns the scans' truth-column accounting (truth.go). Not safe
// to call concurrently with running executions.
func (r *Runner) TruthStats() TruthStats { return r.reg.TruthStats() }

// CheckArrangements verifies the registry refcount invariant against the
// live executors: every arrangement or truth-column handle an operator holds
// is counted by exactly one registry ref and vice versa, and tombstone
// accounting balances. The churn oracle calls it after every graft; a leak
// (or a double release) surfaces as a mismatch here long before memory
// numbers would show it.
func (r *Runner) CheckArrangements() error {
	handles := 0
	for _, se := range r.Execs {
		handles += se.arrangeHandles()
	}
	return r.reg.checkHandles(handles)
}

// Results returns query q's current materialized result rows; nil for an
// inactive (retired / not-yet-admitted) query slot.
func (r *Runner) Results(q int) []value.Row {
	root := r.Graph.QueryRootSubplan[q]
	if root == nil {
		return nil
	}
	return materialized(r.Execs[root.ID].Out, q)
}
