package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
)

// SubplanExec executes one subplan incrementally. Each RunOnce consumes all
// new tuples from the subplan's inputs (base-table delta logs and child
// subplans' buffers, each via a private offset-tracked reader), pushes them
// through the member operators, and materializes the root's output into the
// subplan's buffer.
type SubplanExec struct {
	// Sub is the executed subplan.
	Sub *mqo.Subplan
	// Out receives the root operator's output.
	Out *buffer.Log

	ops     map[*mqo.Op]operator
	member  map[*mqo.Op]bool
	inputs  map[inputKey]*buffer.Reader
	perExec []Work
	opWork  map[*mqo.Op]Work
	// ins is each member operator's input list, reused across executions
	// (built on first use): slot i holds the reader's segments for an
	// external input, or a one-segment header carrying the member child's
	// output for an in-subplan edge.
	ins map[*mqo.Op][]delta.Seq
	// batch is the vectorized chunk size the member operators iterate
	// with; batches counts the chunks they processed (cumulative), and
	// lastBatches the chunks of the most recent RunOnce — the profiler's
	// physical batch-count column. Chunk counts are derived here from the
	// input segments' lengths with exactly delta.NewChunks' windowing, so
	// they stay deterministic without threading counters through the
	// operators.
	batch       int
	batches     int64
	lastBatches int64
	// winOut records Out.Len() at each window seal (see Runner.sealWindow):
	// the marks that let a graft feed a rebuilt parent subplan exactly this
	// executor's window-k output during replay.
	winOut []int
}

type inputKey struct {
	op   *mqo.Op
	slot int
}

// inputResolver locates the log feeding an external input: the base-table
// log for a scan, or the producing subplan's output buffer.
type inputResolver interface {
	// TableLog returns the delta log of a base table.
	TableLog(name string) (*buffer.Log, error)
	// SubplanLog returns the output buffer of a subplan.
	SubplanLog(s *mqo.Subplan) (*buffer.Log, error)
}

// newSubplanExec wires a subplan's operators and input readers. batch is the
// chunk size the member operators iterate deltas with; it is captured per
// operator at construction so concurrent runners never share batch state.
// Stateful member operators attach their indexed state to reg, the runner's
// arrangement registry (nil keeps all state private). lay is g's join
// layouts (planLayouts), computed once per graph by the caller.
func newSubplanExec(g *mqo.Graph, sub *mqo.Subplan, res inputResolver, batch int, reg *Registry, lay layouts) (*SubplanExec, error) {
	se := &SubplanExec{
		Sub:    sub,
		Out:    buffer.NewLog(fmt.Sprintf("subplan%d", sub.ID)),
		ops:    make(map[*mqo.Op]operator),
		member: make(map[*mqo.Op]bool),
		inputs: make(map[inputKey]*buffer.Reader),
		opWork: make(map[*mqo.Op]Work),
		ins:    make(map[*mqo.Op][]delta.Seq),
		batch:  batch,
	}
	for _, o := range sub.Ops {
		se.member[o] = true
	}
	for _, o := range sub.Ops {
		se.ops[o] = newOperator(o, batch, reg, lay)
		if o.Kind == mqo.KindScan {
			log, err := res.TableLog(o.Table.Name)
			if err != nil {
				return nil, err
			}
			se.inputs[inputKey{o, 0}] = log.NewReader()
			continue
		}
		for i, c := range o.Children {
			if se.member[c] {
				continue
			}
			child := g.SubplanOf(c)
			if child == nil {
				return nil, fmt.Errorf("exec: op %d child %d not in any subplan", o.ID, c.ID)
			}
			log, err := res.SubplanLog(child)
			if err != nil {
				return nil, err
			}
			se.inputs[inputKey{o, i}] = log.NewReader()
		}
	}
	return se, nil
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
	out, w := se.eval(se.Sub.Root)
	se.lastBatches = se.batches - b0
	se.Out.Append(out...)
	// Materializing the root's output into the buffer is accounted as
	// extra output work (the paper charges intermediate materialization),
	// and every incremental execution pays the fixed startup cost.
	w.Output += int64(len(out))
	w.Fixed += StartupCostPerOp * int64(len(se.Sub.Ops))
	if DebugSlowSubplan != nil {
		w.Fixed += DebugSlowSubplan(se.Sub.ID)
	}
	se.perExec = append(se.perExec, w)
	return w
}

func (se *SubplanExec) eval(op *mqo.Op) ([]delta.Tuple, Work) {
	var w Work
	ins := se.opInputs(op)
	if op.Kind == mqo.KindScan {
		rd := se.inputs[inputKey{op, 0}]
		se.ops[op].(*scanExec).pos = rd.Offset()
		ins[0] = rd.ReadNew()
	} else {
		for i, c := range op.Children {
			if se.member[c] {
				batch, cw := se.eval(c)
				w.Add(cw)
				ins[i][0] = batch
			} else {
				ins[i] = se.inputs[inputKey{op, i}].ReadNew()
			}
		}
	}
	for _, in := range ins {
		se.batches += chunkCount(in, se.batch)
	}
	out, ow := se.ops[op].process(ins)
	// Drop the input views (the readers' view lists included): a graft may
	// re-point a reader at a rebuilt producer, and the old producer's log
	// must not stay reachable through this list.
	for _, in := range ins {
		clear(in)
	}
	acc := se.opWork[op]
	acc.Add(ow)
	se.opWork[op] = acc
	w.Add(ow)
	return out, w
}

// opInputs returns op's reusable input list, building it on first use.
func (se *SubplanExec) opInputs(op *mqo.Op) []delta.Seq {
	if ins, ok := se.ins[op]; ok {
		return ins
	}
	ins := make([]delta.Seq, max(len(op.Children), 1))
	for i, c := range op.Children {
		if se.member[c] {
			ins[i] = make(delta.Seq, 1)
		}
	}
	se.ins[op] = ins
	return ins
}

// chunkCount returns the number of windows delta.NewChunks yields over seq:
// per non-empty segment, one window of at most batch tuples each, or the
// whole segment when batch < 1.
func chunkCount(seq delta.Seq, batch int) int64 {
	var n int64
	for _, seg := range seq {
		switch {
		case len(seg) == 0:
		case batch < 1:
			n++
		default:
			n += int64((len(seg) + batch - 1) / batch)
		}
	}
	return n
}

// OpWork returns the cumulative work attributed to one member operator —
// the per-operator breakdown behind the subplan totals.
func (se *SubplanExec) OpWork(op *mqo.Op) Work { return se.opWork[op] }

// Executions returns the number of incremental executions so far.
func (se *SubplanExec) Executions() int { return len(se.perExec) }

// TotalWork sums the work of all executions.
func (se *SubplanExec) TotalWork() Work {
	var w Work
	for _, e := range se.perExec {
		w.Add(e)
	}
	return w
}

// FinalWork returns the work of the last execution (zero before any run).
func (se *SubplanExec) FinalWork() Work {
	if len(se.perExec) == 0 {
		return Work{}
	}
	return se.perExec[len(se.perExec)-1]
}

// ExecWork returns the work of execution i.
func (se *SubplanExec) ExecWork(i int) Work { return se.perExec[i] }

// Batches returns the cumulative vectorized chunk count across executions;
// LastBatches the chunks of the most recent execution. Physical metrics:
// they vary with the batch size, unlike the modeled Work counters.
func (se *SubplanExec) Batches() int64     { return se.batches }
func (se *SubplanExec) LastBatches() int64 { return se.lastBatches }

// release drops the member operators' arrangement and truth-column handles;
// a graft calls it on every subplan executor the new plan revision no longer
// carries.
func (se *SubplanExec) release(reg *Registry) {
	for _, o := range se.ops {
		if a, ok := o.(arranged); ok {
			a.release(reg)
		}
	}
}

// arrangeHandles counts the arrangement and truth-column handles the member
// operators hold.
func (se *SubplanExec) arrangeHandles() int {
	n := 0
	for _, o := range se.ops {
		if a, ok := o.(arranged); ok {
			n += a.handles()
		}
	}
	return n
}
