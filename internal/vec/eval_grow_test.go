package vec

import (
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/value"
)

// growPred is c0 + 1 > 3 AND c0 < 1000: Truths scratch on the AND and the
// comparisons, Values scratch on the arithmetic and its leaves.
func growPred() *Eval {
	c0 := &expr.Column{Index: 0}
	return Compile(&expr.Binary{Op: expr.OpAnd,
		L: &expr.Binary{Op: expr.OpGt,
			L: &expr.Binary{Op: expr.OpAdd, L: c0, R: &expr.Const{Val: value.Int(1)}},
			R: &expr.Const{Val: value.Int(3)}},
		R: &expr.Binary{Op: expr.OpLt, L: c0, R: &expr.Const{Val: value.Int(1000)}},
	})
}

// walk calls fn on every node of the tree.
func (ev *Eval) walk(fn func(*Eval)) {
	if ev == nil {
		return
	}
	fn(ev)
	ev.l.walk(fn)
	ev.r.walk(fn)
}

// evalChunks runs ev's Values and Truths over chunks of the given sizes and
// returns, per node, how often its Values and its Truths scratch were
// reallocated.
func evalChunks(ev *Eval, sizes []int) map[*Eval][2]int {
	tup := make([]delta.Tuple, 0, 1024)
	for len(tup) < cap(tup) {
		tup = append(tup, delta.Tuple{Row: value.Row{value.Int(int64(len(tup)))}})
	}
	reallocs := make(map[*Eval][2]int)
	var ch Chunk
	for _, n := range sizes {
		ch.Reset(tup[:n])
		type caps struct{ v, t int }
		before := make(map[*Eval]caps)
		ev.walk(func(e *Eval) { before[e] = caps{cap(e.buf), cap(e.tbuf)} })
		ev.Values(&ch, ch.Sel)
		ev.Truths(&ch, ch.Sel)
		ev.walk(func(e *Eval) {
			r := reallocs[e]
			if cap(e.buf) != before[e].v {
				r[0]++
			}
			if cap(e.tbuf) != before[e].t {
				r[1]++
			}
			reallocs[e] = r
		})
	}
	return reallocs
}

// TestEvalScratchGrowsGeometrically pins that chunks growing a row at a
// time from 1 to 1024 reallocate each scratch vector at most
// ⌈log₂ 1024⌉ + 1 times.
func TestEvalScratchGrowsGeometrically(t *testing.T) {
	sizes := make([]int, 1024)
	for i := range sizes {
		sizes[i] = i + 1
	}
	ev := growPred()
	for e, n := range evalChunks(ev, sizes) {
		if n[0] > 11 || n[1] > 11 {
			t.Errorf("node %s reallocated its Values scratch %d and its Truths scratch %d times over chunks of 1..1024 rows, want at most 11",
				e.src, n[0], n[1])
		}
	}
}

// TestEvalScratchStaysSmall pins that a node only ever fed small chunks
// keeps small scratch: growth doubles from what was needed, never jumps to
// a batch size.
func TestEvalScratchStaysSmall(t *testing.T) {
	sizes := make([]int, 0, 500)
	for len(sizes) < cap(sizes) {
		sizes = append(sizes, 1+len(sizes)%5)
	}
	ev := growPred()
	evalChunks(ev, sizes)
	ev.walk(func(e *Eval) {
		if cap(e.buf) > 8 || cap(e.tbuf) > 8 {
			t.Errorf("node %s holds scratch of %d values and %d truths after chunks of at most 5 rows, want at most 8",
				e.src, cap(e.buf), cap(e.tbuf))
		}
	})
}
