package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
)

// SubplanExec executes one subplan incrementally. Each RunOnce consumes all
// new tuples from the subplan's inputs (scan views and child subplans' logs,
// each via a private cursor) and pushes them, chunk by chunk, through the
// member operators, the root's into the subplan's log (see run) — unless
// the root is a scan, whose output is a view over its table log that
// parents read through the scan itself.
type SubplanExec struct {
	// Sub is the executed subplan.
	Sub *mqo.Subplan
	// Out receives the root operator's output; nil when the root is a scan.
	Out *buffer.Log
	// view is the root scan when the subplan is a view.
	view *scanExec

	// nodes holds the member operators in pre-order from the root, children
	// in slot order (see opNode).
	nodes []opNode
	// runs counts the incremental executions so far, total sums their
	// work and last is the most recent one's.
	runs        int
	total, last Work
	// batch is the vectorized chunk size the sources yield; batches counts
	// the chunks the member operators processed (cumulative), and
	// lastBatches the chunks of the most recent RunOnce — the profiler's
	// physical batch-count column.
	batch       int
	batches     int64
	lastBatches int64
	// scratch is the chunk scratch every view reader of the executor shares.
	scratch viewScratch
	// state holds the registry handles the member operators attached.
	state holder
	// winOut records OutputLen at each window seal (see Runner.sealWindow),
	// and winEnd the readable end in reader coordinates — the log's length,
	// or a view's table position: the marks that let a graft feed a rebuilt
	// parent subplan exactly this executor's window-k output during replay,
	// and correct a reattached reader's counts.
	winOut, winEnd []int
}

// opNode is one member operator of an executor. An executor numbers its
// members in pre-order from the root, children in slot order, so subplans
// with equal local state signatures — member trees of one shape — number
// their operators alike, and a graft adopts an executor by handing each node
// its new operator (adopt).
type opNode struct {
	op *mqo.Op
	// x executes op: a *scanExec for a scan, an operator otherwise.
	x any
	// srcs holds a non-scan's input sources by child slot: a view reader for
	// a scan child (member or not), a log reader for another child subplan,
	// nil for a member operator, which pushes. kids holds each member
	// child's node index by slot, -1 for another subplan's output.
	srcs []source
	kids []int
	// work is the cumulative work attributed to op.
	work Work
}

// newSubplanExec wires a subplan of g to r's table logs (creating those not
// yet arrived) and to its child subplans' executors in execs, the executor
// slice being filled children-first (r.Execs at construction; a graft's new
// slice). lay is g's join layouts (planLayouts), computed once per graph by
// the caller. The sources yield chunks of r's batch size, captured at
// construction so concurrent runners never share batch state; joins and
// aggregates attach their indexed state, and scans their truth columns, to
// r's registry through the executor's holder, which an error releases.
func newSubplanExec(r *Runner, g *mqo.Graph, sub *mqo.Subplan, execs []*SubplanExec, lay layouts) (*SubplanExec, error) {
	se := &SubplanExec{
		Sub:   sub,
		nodes: make([]opNode, 0, len(sub.Ops)),
		batch: r.opts.batch(),
		state: holder{reg: r.reg},
	}
	if _, err := se.build(r, g, sub.Root, execs, lay); err != nil {
		se.state.release()
		return nil, err
	}
	if s, ok := se.nodes[0].x.(*scanExec); ok {
		se.view = s
	} else {
		se.Out = buffer.NewLog(fmt.Sprintf("subplan%d", sub.ID))
		se.nodes[0].x.(operator).base().out = outlet{size: logChunk, log: se.Out}
	}
	return se, nil
}

// build appends o's node, then its member children's depth-first, and
// returns o's node index.
func (se *SubplanExec) build(r *Runner, g *mqo.Graph, o *mqo.Op, execs []*SubplanExec, lay layouts) (int, error) {
	i := len(se.nodes)
	if o.Kind == mqo.KindScan {
		s := newScanExec(o, se.batch, &se.state, r.tableLog(o.Table.Name), &se.scratch)
		se.nodes = append(se.nodes, opNode{op: o, x: s})
		return i, nil
	}
	x := newOperator(o, se.batch, &se.state, lay)
	srcs, kids := make([]source, len(o.Children)), make([]int, len(o.Children))
	se.nodes = append(se.nodes, opNode{op: o, x: x, srcs: srcs, kids: kids})
	for slot, c := range o.Children {
		child := g.SubplanOf(c)
		switch {
		case child == se.Sub:
			k, err := se.build(r, g, c, execs, lay)
			if err != nil {
				return 0, err
			}
			kids[slot] = k
			switch cx := se.nodes[k].x.(type) {
			case *scanExec:
				srcs[slot] = newViewReader(cx, o.Queries, se.batch, 0, &se.scratch)
			case operator:
				cx.base().out = outlet{size: se.batch, to: x, slot: slot, copies: o.Kind != mqo.KindJoin, chunks: &se.batches}
			}
		case child == nil:
			return 0, fmt.Errorf("exec: op %d child %d not in any subplan", o.ID, c.ID)
		case execs[child.ID] == nil:
			return 0, fmt.Errorf("exec: subplan %d has no executor yet", child.ID)
		default:
			kids[slot] = -1
			srcs[slot] = se.reader(execs[child.ID], o.Queries, 0)
		}
	}
	return i, nil
}

// reader returns a source over producer's output at position off for a
// member operator serving queries: a view reader building its chunks in the
// executor's scratch, or a log reader.
func (se *SubplanExec) reader(producer *SubplanExec, queries mqo.Bitset, off int) source {
	if producer.view != nil {
		return newViewReader(producer.view, queries, se.batch, off, &se.scratch)
	}
	return &seqSource{rd: producer.Out.NewReaderAt(off), batch: se.batch}
}

// OutputLen returns the number of tuples the subplan has output so far: its
// log's length, or for a view the rows its scan passed.
func (se *SubplanExec) OutputLen() int {
	if se.view != nil {
		return int(se.view.out)
	}
	return se.Out.Len()
}

// end returns the position a reader caught up with the output stands at.
func (se *SubplanExec) end() int {
	if se.view != nil {
		return se.view.pos
	}
	return se.Out.Len()
}

// seal records the executor's window marks.
func (se *SubplanExec) seal() {
	se.winOut = append(se.winOut, se.OutputLen())
	se.winEnd = append(se.winEnd, se.end())
}

// logChunk is a root's outlet size: twice the log's segment cap (1024), so
// each Append opens the segments one Append of the whole execution would,
// and a parent's reader, which chunks within segments, chunks as before.
const logChunk = 2048

// source is one operator input for one execution: open starts the read,
// the executor drains Next, and close returns the tuples of the producer's
// output the source skipped (which the operator's Tuples must still count).
// Next reports whether the chunk's rows are borrowed, rewritten later (a
// view reader's over a column segment): an operator that keeps such a row
// past the chunk copies it. setLimit caps reads at a position (< 0: none).
type source interface {
	open()
	Next() (chunk []delta.Tuple, borrowed, ok bool)
	close() (skipped int64)
	setLimit(n int)
}

// seqSource reads a child subplan's log through rd in chunks of at most
// batch tuples.
type seqSource struct {
	rd    *buffer.Reader
	batch int
	seq   delta.Seq
	it    delta.Chunks
}

func (s *seqSource) open() {
	s.seq = s.rd.ReadNew()
	s.it = delta.NewChunks(s.seq, s.batch)
}

// Next never borrows: a log's rows are carved by its producer and never
// rewritten.
func (s *seqSource) Next() ([]delta.Tuple, bool, bool) {
	win, ok := s.it.Next()
	return win, false, ok
}

// close drops the views it read (the reader's view list included): a graft
// may re-point the source at a rebuilt producer, and the old producer's log
// must not stay reachable through it.
func (s *seqSource) close() (skipped int64) {
	clear(s.seq)
	return 0
}

func (s *seqSource) setLimit(n int) { s.rd.SetLimit(n) }

// DebugSlowSubplan, when non-nil, returns extra Fixed work charged to every
// incremental execution of the given subplan — fault injection for the
// scheduler runtime's overload tests, mirroring DebugSkipExtremumRescan. It
// makes a subplan look arbitrarily expensive to any clock that translates
// work into time, without slowing the test suite down; production code must
// never set it.
var DebugSlowSubplan func(subplanID int) int64

// RunOnce performs one incremental execution and returns its work.
func (se *SubplanExec) RunOnce() Work {
	b0, n0 := se.batches, se.OutputLen()
	w := se.run(0)
	se.lastBatches = se.batches - b0
	// Materializing the root's output is accounted as extra output work
	// (the paper charges intermediate materialization) — a view too,
	// because Work models the paper's system, not this executor's storage —
	// and every incremental execution pays the fixed startup cost.
	w.Output += int64(se.OutputLen() - n0)
	w.Fixed += StartupCostPerOp * int64(len(se.Sub.Ops))
	if DebugSlowSubplan != nil {
		w.Fixed += DebugSlowSubplan(se.Sub.ID)
	}
	se.record(w)
	return w
}

// record accounts one execution's work.
func (se *SubplanExec) record(w Work) {
	se.runs++
	se.total.Add(w)
	se.last = w
}

// run executes node i's subtree once and returns its work. A scan fires.
// An operator takes its inputs in slot order — a member operator child runs
// and pushes its output in through its outlet, any other input is read and
// pushed chunk by chunk, one source at a time — and then finishes.
func (se *SubplanExec) run(i int) Work {
	n := &se.nodes[i]
	var w, own Work
	if s, ok := n.x.(*scanExec); ok {
		own = s.fire()
	} else {
		x := n.x.(operator)
		b := x.base()
		for slot, src := range n.srcs {
			if k := n.kids[slot]; k >= 0 {
				w.Add(se.run(k))
			}
			if src == nil {
				continue
			}
			src.open()
			for tup, borrowed, ok := src.Next(); ok; tup, borrowed, ok = src.Next() {
				se.batches++
				x.push(slot, tup, borrowed)
			}
			b.w.Tuples += src.close()
		}
		x.finish()
		own, b.w = b.w, Work{}
	}
	n.work.Add(own)
	w.Add(own)
	return w
}

// OpWork returns the cumulative work attributed to one member operator —
// the per-operator breakdown behind the subplan totals.
func (se *SubplanExec) OpWork(op *mqo.Op) Work {
	for _, n := range se.nodes {
		if n.op == op {
			return n.work
		}
	}
	return Work{}
}

// Executions returns the number of incremental executions so far.
func (se *SubplanExec) Executions() int { return se.runs }

// TotalWork returns the summed work of all executions.
func (se *SubplanExec) TotalWork() Work { return se.total }

// FinalWork returns the work of the last execution (zero before any run).
func (se *SubplanExec) FinalWork() Work { return se.last }

// Batches returns the cumulative vectorized chunk count across executions;
// LastBatches the chunks of the most recent execution. Physical metrics:
// they vary with the batch size, unlike the modeled Work counters.
func (se *SubplanExec) Batches() int64     { return se.batches }
func (se *SubplanExec) LastBatches() int64 { return se.lastBatches }
