package exec

import (
	"sort"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// operator is a stateful physical join, projection or aggregation, driven
// push-style (SubplanExec.run): push consumes one chunk of child slot's
// input, finish ends the execution, and output leaves through the outlet
// one chunk at a time — a join's or projection's as soon as a chunk is
// full, an aggregate's at finish. (A scan is not an operator: it is a view
// its consumers read through, see scan.go.)
//
// Operators process their input in columnar chunks (internal/vec): marker
// predicates and key/projection expressions are evaluated column-at-a-time
// over a selection vector, filters deactivate selection entries instead of
// copying rows, and emitted rows are carved from slab arenas. Chunking is
// physical only: Work counters are computed from logical tuple counts, so
// modeled work is bit-identical at any batch size.
//
// An operator keeps no reference to its sources: a graft may re-point one at
// a rebuilt producer, and the old producer must die with the old producer.
type operator interface {
	push(slot int, in []delta.Tuple, borrowed bool)
	finish()
	base() *opBase
}

// opBase is every operator's outlet and the work of its current execution.
type opBase struct {
	out outlet
	w   Work
}

func (b *opBase) base() *opBase { return b }

// outlet is an operator's edge to its consumer: it stages at most size
// tuples (< 1: no bound) and hands them on as one chunk, to input slot of
// the parent operator (to), counted in chunks, or to a root's output log.
// copies is set when the parent, an aggregate or project, copies every
// value it keeps before the hand-off returns: the rows may be rewritten.
type outlet struct {
	buf    []delta.Tuple
	size   int
	to     operator
	slot   int
	copies bool
	log    *buffer.Log
	chunks *int64
}

// put stages t, an output tuple of the execution, and reports whether the
// staged chunk is full: the operator then hands it on (flush) before
// staging more.
func (b *opBase) put(t delta.Tuple) bool {
	b.w.Output++
	o := &b.out
	if len(o.buf) == cap(o.buf) {
		o.buf = append(make([]delta.Tuple, 0, grow(cap(o.buf), len(o.buf)+1, o.size)), o.buf...)
	}
	o.buf = append(o.buf, t)
	return len(o.buf) == o.size
}

// flush hands the staged tuples on, if any, and drops them, so the outlet
// pins no row.
func (o *outlet) flush() {
	if len(o.buf) == 0 {
		return
	}
	if o.log != nil {
		o.log.Append(o.buf...)
	} else {
		*o.chunks++
		o.to.push(o.slot, o.buf, false)
	}
	clear(o.buf)
	o.buf = o.buf[:0]
}

// applyMarkers evaluates the operator's per-query marker predicates against
// the tuple's row and clears the bits of queries whose predicate fails
// (SharedDB σ* semantics: marking never drops a tuple another query needs).
// It returns the surviving bits. This is the scalar path, used only for
// aggregate group output; projects and joins apply their compiled markers
// chunk-at-a-time (applyMarkersChunk), and scans through their truth columns
// (scan.go).
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

// newOperator instantiates the physical operator for a non-scan shared-plan
// node. batch bounds a join's pending emissions; joins and aggregates attach
// their arrangements through h, the holder of the executor they belong to.
// lay is the graph's join layouts, which every operator reading a join's
// rows compiles against.
func newOperator(op *mqo.Op, batch int, h *holder, lay layouts) operator {
	switch op.Kind {
	case mqo.KindProject:
		return newProjectExec(op, lay)
	case mqo.KindJoin:
		j := newJoinExec(op, batch, lay)
		j.attach(h)
		return j
	case mqo.KindAggregate:
		a := newAggExec(op, lay)
		a.attach(h)
		return a
	default:
		panic("exec: unknown operator kind")
	}
}

// projectExec evaluates the projection list column-at-a-time over each
// chunk's surviving selection, then applies its markers over the projected
// columns before any output row is materialized. Emitted rows are carved
// from the operator's row arena: projected rows are retained downstream.
type projectExec struct {
	opBase
	op      *mqo.Op
	exprs   []*vec.Eval
	markers []marker
	ch      vec.Chunk
	cols    [][]value.Value
	arena   vec.RowArena
}

func newProjectExec(op *mqo.Op, lay layouts) *projectExec {
	p := &projectExec{
		op:      op,
		markers: compileMarkers(op, nil),
		exprs:   make([]*vec.Eval, len(op.Exprs)),
		cols:    make([][]value.Value, len(op.Exprs)),
	}
	for i, ne := range op.Exprs {
		p.exprs[i] = vec.Compile(lay.over(op.Children[0], ne.E))
	}
	return p
}

func (p *projectExec) push(_ int, tup []delta.Tuple, _ bool) {
	p.w.Tuples += int64(len(tup))
	ch := &p.ch
	ch.Reset(tup)
	ch.InitBits(p.op.Queries)
	ch.NarrowNonEmpty()
	if len(ch.Sel) == 0 {
		return
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
		if p.put(delta.Tuple{Row: row, Bits: ch.Bits[i], Sign: tup[i].Sign}) {
			p.out.flush()
		}
	}
}

func (p *projectExec) finish() {
	p.out.flush()
	p.ch.Reset(nil)
}
