// Vectorized expression evaluation: an expr tree is compiled once per
// operator into an Eval tree, then evaluated column-at-a-time over a
// chunk's selection. Dispatch costs (one type switch per node) are paid per
// chunk instead of per tuple; the per-element inner loops route through
// expr.Apply/ApplyUnary/Like.Apply, the same scalar kernels Binary.Eval
// uses, so vectorized results cannot drift from row-at-a-time evaluation.
package vec

import (
	"fmt"

	"ishare/internal/expr"
	"ishare/internal/value"
)

type nodeKind uint8

const (
	nodeCol nodeKind = iota
	nodeConst
	nodeBinary
	nodeUnary
	nodeLike
	nodeFallback
)

// Eval is one compiled expression node. Each node owns a result scratch
// vector reused across chunks; Values returns a view into it, valid until
// the node's next evaluation.
type Eval struct {
	kind nodeKind
	col  int
	cst  value.Value
	op   expr.Op
	like *expr.Like
	l, r *Eval

	src  expr.Expr
	buf  []value.Value
	tbuf []bool    // Truths scratch: pointer-free, invisible to the GC
	sel  SelVector // AND/OR short-circuit sub-selection scratch
	row  value.Row // fallback scratch
}

// Compile builds the vectorized form of e.
func Compile(e expr.Expr) *Eval {
	switch n := e.(type) {
	case *expr.Column:
		return &Eval{kind: nodeCol, col: n.Index, src: e}
	case *expr.Const:
		return &Eval{kind: nodeConst, cst: n.Val, src: e}
	case *expr.Binary:
		return &Eval{kind: nodeBinary, op: n.Op, l: Compile(n.L), r: Compile(n.R), src: e}
	case *expr.Unary:
		return &Eval{kind: nodeUnary, op: n.Op, l: Compile(n.E), src: e}
	case *expr.Like:
		return &Eval{kind: nodeLike, like: n, l: Compile(n.E), src: e}
	default:
		return &Eval{kind: nodeFallback, src: e}
	}
}

// Source returns the expression the node was compiled from.
func (ev *Eval) Source() expr.Expr { return ev.src }

// grow sizes the scratch vector for a chunk of n tuples. Capacity at least
// doubles, so chunks growing a row at a time reallocate O(log n) times,
// while a node that only ever sees small chunks keeps small scratch.
func (ev *Eval) grow(n int) []value.Value {
	if cap(ev.buf) < n {
		ev.buf = make([]value.Value, max(n, 2*cap(ev.buf)))
	}
	return ev.buf[:n]
}

// growT is grow for the Truths scratch.
func (ev *Eval) growT(n int) []bool {
	if cap(ev.tbuf) < n {
		ev.tbuf = make([]bool, max(n, 2*cap(ev.tbuf)))
	}
	return ev.tbuf[:n]
}

// Values evaluates the expression for every selected tuple, storing the
// result at the tuple's absolute chunk position in the returned vector.
// Entries outside sel are stale. The vector aliases node-owned scratch and
// is valid until the node's next Values call.
func (ev *Eval) Values(ch *Chunk, sel SelVector) []value.Value {
	n := len(ch.Tup)
	out := ev.grow(n)
	switch ev.kind {
	case nodeCol:
		if ch.Proj != nil {
			col := ch.Proj[ev.col]
			for _, i := range sel {
				out[i] = col[i]
			}
			return out
		}
		idx := ev.col
		for _, i := range sel {
			out[i] = ch.Tup[i].Row[idx]
		}
	case nodeConst:
		for _, i := range sel {
			out[i] = ev.cst
		}
	case nodeBinary:
		op := ev.op
		if op == expr.OpAnd || op == expr.OpOr {
			// Short-circuit exactly like Binary.Eval: the right child is
			// evaluated only for tuples the left operand didn't decide.
			lv := ev.l.Values(ch, sel)
			sub := ev.sel[:0]
			if op == expr.OpAnd {
				for _, i := range sel {
					if l := lv[i]; l.K == value.KindBool && l.I == 0 {
						out[i] = value.Bool(false)
					} else {
						sub = append(sub, i)
					}
				}
			} else {
				for _, i := range sel {
					if lv[i].Truth() {
						out[i] = value.Bool(true)
					} else {
						sub = append(sub, i)
					}
				}
			}
			ev.sel = sub
			if len(sub) > 0 {
				rv := ev.r.Values(ch, sub)
				for _, i := range sub {
					out[i] = expr.Apply(op, lv[i], rv[i])
				}
			}
			return out
		}
		lv := ev.l.Values(ch, sel)
		rv := ev.r.Values(ch, sel)
		if op.Comparison() {
			for _, i := range sel {
				l, r := lv[i], rv[i]
				if l.K == value.KindNull || r.K == value.KindNull {
					out[i] = value.Null
					continue
				}
				out[i] = value.Bool(cmpTruth(op, value.Compare(l, r)))
			}
			return out
		}
		for _, i := range sel {
			out[i] = expr.Apply(op, lv[i], rv[i])
		}
	case nodeUnary:
		lv := ev.l.Values(ch, sel)
		for _, i := range sel {
			out[i] = expr.ApplyUnary(ev.op, lv[i])
		}
	case nodeLike:
		lv := ev.l.Values(ch, sel)
		for _, i := range sel {
			out[i] = ev.like.Apply(lv[i])
		}
	case nodeFallback:
		// Unknown node type: fall back to scalar evaluation per row. Only
		// reachable if a new expr node type is added without a vectorized
		// form; requires the row view.
		if ch.Proj != nil {
			panic(fmt.Sprintf("vec: cannot evaluate %T over a column view", ev.src))
		}
		for _, i := range sel {
			out[i] = ev.src.Eval(ch.Tup[i].Row)
		}
	}
	return out
}

// Truths evaluates the expression as a predicate, storing result.Truth() at
// each selected tuple's absolute chunk position in the returned vector
// (node-owned bool scratch, valid until the node's next evaluation).
// Predicate-shaped nodes write booleans directly — no Value stores, no
// pointer-containing scratch for the collector to scan:
//
//   - AND recurses on both children's Truths with the scalar
//     short-circuit: Truth(l AND r) ≡ l.Truth() && r.Truth() under
//     expr.Apply's null rules (a NULL operand yields NULL, whose Truth is
//     false), so the right child evaluates only where the left was true.
//   - Comparisons evaluate their children's Values and write the boolean
//     outcome (NULL operands compare to NULL, i.e. false).
//   - Everything else (OR's asymmetric null logic, LIKE, NOT, columns)
//     falls back to Values + Truth per element.
func (ev *Eval) Truths(ch *Chunk, sel SelVector) []bool {
	n := len(ch.Tup)
	out := ev.growT(n)
	switch {
	case ev.kind == nodeBinary && ev.op == expr.OpAnd:
		lt := ev.l.Truths(ch, sel)
		sub := ev.sel[:0]
		for _, i := range sel {
			out[i] = lt[i]
			if lt[i] {
				sub = append(sub, i)
			}
		}
		ev.sel = sub
		if len(sub) > 0 {
			rt := ev.r.Truths(ch, sub)
			for _, i := range sub {
				out[i] = rt[i]
			}
		}
	case ev.kind == nodeBinary && ev.op.Comparison():
		// Column-vs-constant — the dominant predicate shape — compares
		// straight out of the rows (or projected columns): no Value is
		// materialized, so the scratch the kernel writes is pointer-free.
		op := ev.op
		if ev.l.kind == nodeCol && ev.r.kind == nodeConst {
			cst := ev.r.cst
			if cst.K == value.KindNull {
				for _, i := range sel {
					out[i] = false
				}
				return out
			}
			idx := ev.l.col
			if col := ch.colView(idx); col != nil {
				for _, i := range sel {
					out[i] = col[i].K != value.KindNull && cmpTruth(op, value.Compare(col[i], cst))
				}
				return out
			}
			for _, i := range sel {
				v := ch.Tup[i].Row[idx]
				out[i] = v.K != value.KindNull && cmpTruth(op, value.Compare(v, cst))
			}
			return out
		}
		lv := ev.l.Values(ch, sel)
		rv := ev.r.Values(ch, sel)
		for _, i := range sel {
			l, r := lv[i], rv[i]
			out[i] = l.K != value.KindNull && r.K != value.KindNull && cmpTruth(op, value.Compare(l, r))
		}
	default:
		vals := ev.Values(ch, sel)
		for _, i := range sel {
			out[i] = vals[i].Truth()
		}
	}
	return out
}

// cmpTruth maps a three-way comparison result to the comparison operator's
// boolean outcome.
func cmpTruth(op expr.Op, c int) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// CompileAll compiles a slice of expressions.
func CompileAll(es []expr.Expr) []*Eval {
	out := make([]*Eval, len(es))
	for i, e := range es {
		out[i] = Compile(e)
	}
	return out
}
