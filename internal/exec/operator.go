package exec

import (
	"sort"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// operator is a stateful physical operator. process consumes one batch of
// deltas per child — a delta.Seq of segments, iterated in place — and returns
// the output deltas plus the work done.
//
// Operators process their input in columnar chunks (internal/vec): marker
// predicates and key/projection expressions are evaluated column-at-a-time
// over a selection vector, filters deactivate selection entries instead of
// copying rows, and emitted rows are carved from slab arenas. Chunking is
// physical only: Work counters are computed from logical tuple counts, so
// modeled work is bit-identical at any batch size.
//
// An operator reading a child subplan's log keeps no view of its input once
// process returns: a graft may re-point it at a rebuilt producer, and the old
// producer's log must die with the old producer.
type operator interface {
	process(in []delta.Seq) ([]delta.Tuple, Work)
}

// applyMarkers evaluates the operator's per-query marker predicates against
// the tuple's row and clears the bits of queries whose predicate fails
// (SharedDB σ* semantics: marking never drops a tuple another query needs).
// It returns the surviving bits. This is the scalar path, used only for
// aggregate group output; projects and joins apply their compiled markers
// chunk-at-a-time (applyMarkersChunk), and scans through their truth columns
// (scanExec.applyTruths).
func applyMarkers(op *mqo.Op, row value.Row, bits mqo.Bitset) mqo.Bitset {
	for q, pred := range op.Preds {
		if bits.Has(q) && !pred.Eval(row).Truth() {
			bits = bits.Minus(mqo.Bit(q))
		}
	}
	return bits
}

// marker is one compiled per-query predicate plus its sub-selection
// scratch: the predicate evaluates only over tuples that still carry the
// marker's query bit, matching the scalar path's lazy evaluation.
type marker struct {
	q    int
	pred *vec.Eval
	sel  vec.SelVector
}

// compileMarkers compiles an operator's marker predicates in query order
// (the map's iteration order varies, but markers commute — each clears only
// its own query's bit), with their columns rewritten through m onto the
// operator's physical output rows (nil: the full schema).
func compileMarkers(op *mqo.Op, m map[int]int) []marker {
	if len(op.Preds) == 0 {
		return nil
	}
	out := make([]marker, 0, len(op.Preds))
	for q, pred := range op.Preds {
		out = append(out, marker{q: q, pred: vec.Compile(remapCols(pred, m))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].q < out[j].q })
	return out
}

// applyMarkersChunk runs every compiled marker over the chunk's selection,
// clearing failing queries' bits in place. Each predicate evaluates only
// over the tuples that still carry its query bit — tuples another query
// already ruled out never pay for this query's predicate.
func applyMarkersChunk(markers []marker, ch *vec.Chunk) {
	for k := range markers {
		m := &markers[k]
		bit := mqo.Bit(m.q)
		sub := m.sel[:0]
		for _, i := range ch.Sel {
			if ch.Bits[i]&bit != 0 {
				sub = append(sub, i)
			}
		}
		m.sel = sub
		if len(sub) == 0 {
			continue
		}
		vals := m.pred.Truths(ch, sub)
		for _, i := range sub {
			if !vals[i] {
				ch.Bits[i] &^= bit
			}
		}
	}
}

// arranged is implemented by operators whose state lives in the registry —
// joins' and aggregates' arrangements, scans' truth columns: attach re-keys
// the state through the registry (possibly onto state another operator
// built), release drops the handles when a graft retires the operator, and
// handles reports how many the operator currently holds — the executor side
// of the registry's refcount invariant.
type arranged interface {
	attach(reg *Registry)
	release(reg *Registry)
	handles() int
}

// newOperator instantiates the physical operator for a shared-plan node.
// batch is the chunk size used for delta iteration; stateful operators
// attach their arrangements to reg (nil keeps state private — tests that
// drive joins and aggregates directly), and scans their truth columns, so a
// scan needs a registry. lay is the graph's join layouts, which every
// operator reading a join's rows compiles against.
func newOperator(op *mqo.Op, batch int, reg *Registry, lay layouts) operator {
	switch op.Kind {
	case mqo.KindScan:
		s := &scanExec{op: op, batch: batch, markers: compileMarkers(op, nil)}
		s.attach(reg)
		return s
	case mqo.KindProject:
		return newProjectExec(op, batch, lay)
	case mqo.KindJoin:
		j := newJoinExec(op, batch, lay)
		if reg != nil {
			j.attach(reg)
		}
		return j
	case mqo.KindAggregate:
		a := newAggExec(op, batch, lay)
		if reg != nil {
			a.attach(reg)
		}
		return a
	default:
		panic("exec: unknown operator kind")
	}
}

// scanExec stamps base-table deltas with the scan's query set and applies
// its marker predicates chunk-at-a-time. outBuf is the pooled emission
// buffer, reused across incremental executions (a log append copies tuple
// headers into its segments, so only the slice header is recycled).
type scanExec struct {
	op      *mqo.Op
	batch   int
	markers []marker
	// cols[k] memoizes markers[k]'s outcome per table row in reg (truth.go).
	reg  *Registry
	cols []*truthCol
	// pos is the table log position of the next tuple process reads;
	// SubplanExec.eval sets it from the scan's reader before each ReadNew.
	pos    int
	ch     vec.Chunk
	outBuf []delta.Tuple
}

func (s *scanExec) process(in []delta.Seq) ([]delta.Tuple, Work) {
	var w Work
	// Scan output is at most one tuple per input: size the pooled buffer
	// once instead of append-growing through it.
	if n := in[0].Len(); cap(s.outBuf) < n {
		s.outBuf = make([]delta.Tuple, 0, n)
	}
	out := s.outBuf[:0]
	var evaluated, served int64
	it := delta.NewChunks(in[0], s.batch)
	for tup, ok := it.Next(); ok; tup, ok = it.Next() {
		w.Tuples += int64(len(tup))
		ch := &s.ch
		ch.Reset(tup)
		ch.InitBits(s.op.Queries, false)
		e, sv := s.applyTruths(ch, s.pos)
		evaluated += e
		served += sv
		s.pos += len(tup)
		for _, i := range ch.Sel {
			if ch.Bits[i].Empty() {
				continue
			}
			out = append(out, delta.Tuple{Row: tup[i].Row, Bits: ch.Bits[i], Sign: tup[i].Sign})
		}
	}
	s.outBuf = out
	if evaluated+served > 0 {
		s.reg.truthEvaluated.Add(evaluated)
		s.reg.truthServed.Add(served)
	}
	w.Output += int64(len(out))
	return out, w
}

// projectExec evaluates the projection list column-at-a-time over each
// chunk's surviving selection, then applies its markers over the projected
// columns before any output row is materialized. Emitted rows are carved
// from the operator's row arena (projected rows are retained downstream).
type projectExec struct {
	op      *mqo.Op
	batch   int
	exprs   []*vec.Eval
	markers []marker
	ch      vec.Chunk
	cols    [][]value.Value
	arena   vec.RowArena
	outBuf  []delta.Tuple
}

func newProjectExec(op *mqo.Op, batch int, lay layouts) *projectExec {
	p := &projectExec{
		op:      op,
		batch:   batch,
		markers: compileMarkers(op, nil),
		exprs:   make([]*vec.Eval, len(op.Exprs)),
		cols:    make([][]value.Value, len(op.Exprs)),
	}
	for i, ne := range op.Exprs {
		p.exprs[i] = vec.Compile(lay.over(op.Children[0], ne.E))
	}
	return p
}

func (p *projectExec) process(in []delta.Seq) ([]delta.Tuple, Work) {
	var w Work
	// Projection emits at most one tuple per input.
	if n := in[0].Len(); cap(p.outBuf) < n {
		p.outBuf = make([]delta.Tuple, 0, n)
	}
	out := p.outBuf[:0]
	it := delta.NewChunks(in[0], p.batch)
	for tup, ok := it.Next(); ok; tup, ok = it.Next() {
		w.Tuples += int64(len(tup))
		ch := &p.ch
		ch.Reset(tup)
		ch.InitBits(p.op.Queries, true)
		ch.NarrowNonEmpty()
		if len(ch.Sel) == 0 {
			continue
		}
		for c, ev := range p.exprs {
			p.cols[c] = ev.Values(ch, ch.Sel)
		}
		// Markers see the projected columns, not the input rows.
		ch.Proj = p.cols
		applyMarkersChunk(p.markers, ch)
		ch.Proj = nil
		for _, i := range ch.Sel {
			if ch.Bits[i].Empty() {
				continue
			}
			row := p.arena.NewRow(len(p.cols))
			for c := range p.cols {
				row[c] = p.cols[c][i]
			}
			out = append(out, delta.Tuple{Row: row, Bits: ch.Bits[i], Sign: tup[i].Sign})
		}
	}
	p.outBuf = out
	p.ch.Reset(nil)
	w.Output += int64(len(out))
	return out, w
}
