package exec

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
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
	// Data mirrors every stream that has arrived, per table, in arrival
	// order. The executor only writes it: the table logs are its record.
	// An owner that never hands the runner out sets Data to nil after
	// construction, and nothing is mirrored.
	Data  DeltaDataset
	Execs []*SubplanExec

	// tables holds the log of every table that has arrived or that a scan
	// reads. The current window's arrivals (the construction dataset until
	// the first StartWindow) are each one staged segment of their log, and
	// arrivals counts them per table.
	tables   map[string]*buffer.Log
	arrivals map[string]int

	// opts is the executor configuration in force (see Options); Graft
	// builds fresh executors under it.
	opts Options
	// winData records, at each window seal, the length of every table log
	// (scanned or not — a later plan revision may start scanning a table
	// that has been arriving unobserved). Together with each executor's
	// per-seal output marks it lets Graft replay a rebuilt subplan through
	// the exact same window-by-window history a from-scratch run would have
	// seen.
	winData []map[string]int
	// winOpen reports whether deltas have arrived since the last seal.
	winOpen bool

	// reg is the registry every join, aggregate and scan of this runner
	// attaches its shared state to (see arrange.go).
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
	// err is the first failed firing group's error (RunGroup).
	err error
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
			ts[i] = InsertTuple(row)
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
// signed change streams, which arrive as the first window. It is the one
// general constructor; NewRunner and NewDeltaRunner are its zero-Options
// forms.
func New(g *mqo.Graph, data DeltaDataset, opts Options) (*Runner, error) {
	r := &Runner{
		Graph:    g,
		Data:     make(DeltaDataset, len(data)),
		tables:   make(map[string]*buffer.Log),
		arrivals: make(map[string]int),
		opts:     opts,
		reg:      NewRegistry(!opts.NoShare),
		lay:      planLayouts(g),
	}
	r.Execs = make([]*SubplanExec, len(g.Subplans))
	for _, s := range g.Subplans { // children-first, so child execs exist
		se, err := newSubplanExec(r, g, s, r.Execs, r.lay)
		if err != nil {
			return nil, err
		}
		r.Execs[s.ID] = se
	}
	r.indexGraph()
	// An all-empty construction dataset opens no window: a sealed empty
	// window would cost every later rebuilt subplan a replay execution.
	r.winOpen = r.stage(data)
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

// TableLog returns the delta log of a base table that arrived or is scanned.
func (r *Runner) TableLog(name string) (*buffer.Log, error) {
	log, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("exec: no log for table %q", name)
	}
	return log, nil
}

// tableLog returns a table's log, creating it on first use.
func (r *Runner) tableLog(name string) *buffer.Log {
	log, ok := r.tables[name]
	if !ok {
		log = buffer.NewLog("table:" + name)
		r.tables[name] = log
	}
	return log
}

// SubplanLog returns the output log of a subplan; an error when the subplan
// is a scan view, which keeps no log.
func (r *Runner) SubplanLog(s *mqo.Subplan) (*buffer.Log, error) {
	se := r.Execs[s.ID]
	if se == nil || se.Sub != s {
		return nil, fmt.Errorf("exec: subplan %d has no executor", s.ID)
	}
	if se.Out == nil {
		return nil, fmt.Errorf("exec: subplan %d is a view over table %s and keeps no log", s.ID, s.Root.Table.Name)
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
// goroutine. It must be called once per Runner; operator state is not reset
// between runs.
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
// children first — so each takes RunGroup's single-firing path.
func (r *Runner) drive(paces []int, n int) (*Report, error) {
	if len(paces) != len(r.Graph.Subplans) {
		return nil, fmt.Errorf("exec: %d paces for %d subplans", len(paces), len(r.Graph.Subplans))
	}
	fs, err := Schedule(paces)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for lo, hi := 0, 0; lo < len(fs); lo = hi {
		hi = lo + 1
		if n > 1 {
			hi = GroupEnd(fs, lo)
		}
		f := fs[lo]
		r.ArriveWindow(f.Index, f.Pace)
		if _, err := r.RunGroup(fs[lo:hi], n, "exec", nil); err != nil {
			return nil, err
		}
	}
	return r.report(paces, time.Since(start)), nil
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

// ReportNow returns the cumulative modeled-work report of the current
// executors, without running anything — the windowed (StartWindow /
// RunSubplan) driving mode's equivalent of Run's return value. After a
// Graft it is what a from-scratch run of the new graph over the same
// windows would report: rebuilt executors count their replays, and the work
// of executors the graft dropped is gone.
func (r *Runner) ReportNow() *Report { return r.report(nil, 0) }

// ArriveWindow reveals the first j/p of each table's arrivals in the current
// window (the construction dataset when StartWindow was never called).
func (r *Runner) ArriveWindow(j, p int) {
	for name, n := range r.arrivals {
		r.tables[name].Reveal(n * j / p)
	}
}

// StartWindow begins a new trigger window: the rest of the current window
// arrives and is sealed, and the given deltas become the new window's
// arrivals, each stream staged as one row segment of its table's log (kept,
// not copied: the caller must not modify it afterwards); fractions passed to
// ArriveWindow are measured over them alone. Operator and buffer state
// carries over — the engine keeps ingesting, as the paper's recurring
// trigger windows do. The scheduler runtime (internal/sched) drives
// multi-window executions through this; Run and RunParallel consume the
// single window the Runner was constructed with.
func (r *Runner) StartWindow(arrivals DeltaDataset) {
	r.ArriveWindow(1, 1)
	r.sealWindow()
	r.stage(arrivals)
	r.winOpen = true
}

// StartColumnWindow is StartWindow for insertions whose rows no caller
// holds (Session.Step's): each table's arrivals are staged as one column
// segment of its log (buffer.Log.StageColumns), whose rows the log
// materializes into a slab that the next column window reuses. The columns
// are kept, not copied; the caller must not modify them afterwards.
func (r *Runner) StartColumnWindow(arrivals map[string]*buffer.Columns) {
	r.ArriveWindow(1, 1)
	r.sealWindow()
	clear(r.arrivals)
	for name, c := range arrivals {
		r.tableLog(name).StageColumns(c)
		r.arrivals[name] = c.Len()
		if r.Data != nil {
			// The log's rows of c are rewritten next window: mirror copies.
			r.Data[name] = append(r.Data[name], InsertStream(Dataset{name: c.Rows()})[name]...)
		}
	}
	r.computeWinClean()
	r.winOpen = true
}

// stage makes arrivals the current window's: each stream is staged, without
// copying, as one segment of its table's log, and Data's mirror, unless nil,
// grows by it. It reports whether any tuple arrived.
func (r *Runner) stage(arrivals DeltaDataset) (arrived bool) {
	clear(r.arrivals)
	for name, ts := range arrivals {
		r.tableLog(name).Stage(ts)
		r.arrivals[name] = len(ts)
		arrived = arrived || len(ts) > 0
		if r.Data == nil {
			continue
		}
		if len(r.Data[name]) == 0 {
			// Clipped, so a later window's append copies instead of
			// writing into the caller's array.
			r.Data[name] = slices.Clip(ts)
		} else {
			r.Data[name] = append(r.Data[name], ts...)
		}
	}
	r.computeWinClean()
	return arrived
}

// sealWindow closes the current window for graft bookkeeping: it records
// every table log's length and every executor's current output marks,
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
	marks := make(map[string]int, len(r.tables))
	for name, log := range r.tables {
		marks[name] = log.Len()
	}
	r.winData = append(r.winData, marks)
	for _, se := range r.Execs {
		se.seal()
	}
}

// RunSubplan performs one bare incremental execution of subplan id and
// returns its work: one firing of RunGroup without the waves or the panic
// recovery, for callers that hand-drive a window (the oracle, the benchmark).
func (r *Runner) RunSubplan(id int) Work { return r.runOnce(id) }

// ArrangeStats returns the arrangement registry's current accounting. Not
// safe to call concurrently with running executions.
func (r *Runner) ArrangeStats() ArrangeStats { return r.reg.Stats() }

// TruthStats returns the scans' truth-column accounting (truth.go). Not safe
// to call concurrently with running executions.
func (r *Runner) TruthStats() TruthStats { return r.reg.TruthStats() }

// CheckArrangements verifies the registry refcount invariant against the
// live executors: every handle an executor holds is counted by exactly one
// registry ref and vice versa. The churn
// oracle calls it after every graft; a leak (or a double release) surfaces
// as a mismatch here long before memory numbers would show it.
func (r *Runner) CheckArrangements() error {
	handles := 0
	for _, se := range r.Execs {
		handles += len(se.state.held)
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
	// A query's root is always its own projection, never a scan view.
	return materialized(r.Execs[root.ID].Out, q)
}
