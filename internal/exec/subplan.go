package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
)

// SubplanExec executes one subplan incrementally. Each RunOnce consumes all
// new tuples from the subplan's inputs (scan views and child subplans' logs,
// each via a private cursor), pushes them through the member operators, and
// materializes the root's output into the subplan's log — unless the root is
// a scan, whose output is a view over its table log that parents read
// through the scan itself.
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
	// an edge for a member child. kids holds each member child's node index
	// by slot, -1 for another subplan's output.
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
	}
	return se, nil
}

// build appends o's node, then its member children's depth-first, and
// returns o's node index.
func (se *SubplanExec) build(r *Runner, g *mqo.Graph, o *mqo.Op, execs []*SubplanExec, lay layouts) (int, error) {
	i := len(se.nodes)
	if o.Kind == mqo.KindScan {
		s := newScanExec(o, se.batch, &se.state, r.tableLog(o.Table.Name))
		s.sc = &se.scratch
		se.nodes = append(se.nodes, opNode{op: o, x: s})
		return i, nil
	}
	x := newOperator(o, se.batch, &se.state, lay)
	// A member join below the root has one parent, in this subplan; an
	// aggregate or project parent copies what it keeps, a join parent
	// stores the rows in its arrangement.
	if j, ok := x.(*joinExec); ok && o != se.Sub.Root && o.Parents[0].Kind != mqo.KindJoin {
		j.transient = true
	}
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
			if s, ok := se.nodes[k].x.(*scanExec); ok {
				srcs[slot] = newViewReader(s, o.Queries, se.batch, 0, &se.scratch)
			} else {
				srcs[slot] = &seqSource{batch: se.batch, seq: make(delta.Seq, 1)}
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

// source is one operator input for one execution: open starts the read,
// the operator drains Next (len, asked first, counts the tuples it will
// yield), and close returns the tuples of the producer's output the source
// skipped (which the operator's Tuples must still count) and the chunks it
// yielded. borrowed reports whether the rows of the chunk Next last yielded
// are rewritten later (a view reader's over a column segment): an operator
// that keeps such a row past the chunk copies it. setLimit caps reads at a
// position (< 0: none).
type source interface {
	open()
	Next() ([]delta.Tuple, bool)
	len() int
	close() (skipped, chunks int64)
	borrowed() bool
	setLimit(n int)
}

// seqSource reads a delta.Seq in chunks of at most batch tuples: a child
// subplan's log through rd, or (rd nil) an in-subplan edge whose one
// segment the parent's eval sets to the member child's output.
type seqSource struct {
	rd     *buffer.Reader
	batch  int
	seq    delta.Seq
	it     delta.Chunks
	chunks int64
}

func (s *seqSource) open() {
	if s.rd != nil {
		s.seq = s.rd.ReadNew()
	}
	s.it = delta.NewChunks(s.seq, s.batch)
}

func (s *seqSource) Next() ([]delta.Tuple, bool) {
	win, ok := s.it.Next()
	if ok {
		s.chunks++
	}
	return win, ok
}

func (s *seqSource) len() int { return s.seq.Len() }

// close drops the views it read (the reader's view list included): a graft
// may re-point the source at a rebuilt producer, and the old producer's log
// must not stay reachable through it.
func (s *seqSource) close() (skipped, chunks int64) {
	clear(s.seq)
	chunks, s.chunks = s.chunks, 0
	return 0, chunks
}

// borrowed is false: a log's rows and an edge's are carved by their
// producer and never rewritten.
func (s *seqSource) borrowed() bool { return false }

func (s *seqSource) setLimit(n int) {
	if s.rd != nil {
		s.rd.SetLimit(n)
	}
}

// DebugSlowSubplan, when non-nil, returns extra Fixed work charged to every
// incremental execution of the given subplan — fault injection for the
// scheduler runtime's overload tests, mirroring DebugSkipExtremumRescan. It
// makes a subplan look arbitrarily expensive to any clock that translates
// work into time, without slowing the test suite down; production code must
// never set it.
var DebugSlowSubplan func(subplanID int) int64

// RunOnce performs one incremental execution and returns its work.
func (se *SubplanExec) RunOnce() Work {
	b0 := se.batches
	out, w := se.eval(0)
	se.lastBatches = se.batches - b0
	// Materializing the root's output is accounted as extra output work
	// (the paper charges intermediate materialization) — a view too,
	// because Work models the paper's system, not this executor's storage —
	// and every incremental execution pays the fixed startup cost.
	n := w.Output
	if se.view == nil {
		se.Out.Append(out...)
		n = int64(len(out))
	}
	w.Output += n
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

// eval fires node i's member children depth-first, then its operator over
// its sources; a scan only fires, its consumers reading it through their
// view readers.
func (se *SubplanExec) eval(i int) ([]delta.Tuple, Work) {
	n := &se.nodes[i]
	var w, own Work
	var out []delta.Tuple
	if s, ok := n.x.(*scanExec); ok {
		own = s.fire()
	} else {
		for slot, k := range n.kids {
			if k >= 0 {
				cout, cw := se.eval(k)
				w.Add(cw)
				if e, ok := n.srcs[slot].(*seqSource); ok {
					e.seq[0] = cout
				}
			}
			n.srcs[slot].open()
		}
		out, own = n.x.(operator).process(n.srcs)
		for _, src := range n.srcs {
			skipped, chunks := src.close()
			own.Tuples += skipped
			se.batches += chunks
		}
	}
	n.work.Add(own)
	w.Add(own)
	return out, w
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
