package exec

import (
	"fmt"
	"slices"

	"ishare/internal/expr"
	"ishare/internal/mqo"
)

// layouts is the physical output layout of every join in a graph: the
// ascending logical output columns (indexes into op.Schema()) the join
// emits, in that order. Scans, projects and aggregates — and a join absent
// from the map — emit their full schema.
//
// The layout is purely physical. Operators, their logical schemas and
// expressions, state and arrangement signatures and the cost model all stay
// in logical columns; only the executor compiles each consumer's
// expressions against its producer's layout (layouts.over). Scan rows pass
// by reference and project and aggregate rows hold exactly their
// expressions, so only join outputs — and the private arrangements over
// join cones that store them — are narrowed; every shareable arrangement
// (mqo.ArrangeKey: linear scan→project cones only) stores full rows.
type layouts map[*mqo.Op][]int

// planLayouts is the column liveness pass: one backward sweep over the
// graph, parents before children, in which every join keeps the logical
// columns read by its own markers, a parent project's expressions, a parent
// aggregate's GROUP BY and argument expressions, or a parent join's key on
// its side plus the parent's own kept columns that fall on that side. Query
// roots keep their full schema — their rows are the results.
func planLayouts(g *mqo.Graph) layouts {
	roots := make(map[*mqo.Op]bool, len(g.Plan.QueryRoots))
	for _, o := range g.Plan.QueryRoots {
		if o != nil {
			roots[o] = true
		}
	}
	read := make(map[*mqo.Op][]bool)
	need := func(o *mqo.Op, c int) {
		if o.Kind != mqo.KindJoin {
			return
		}
		r := read[o]
		if r == nil {
			r = make([]bool, len(o.Schema()))
			read[o] = r
		}
		r[c] = true
	}
	use := func(o *mqo.Op, e expr.Expr) {
		e.Walk(func(n expr.Expr) {
			if c, ok := n.(*expr.Column); ok {
				need(o, c.Index)
			}
		})
	}
	lay := make(layouts)
	// Subplans are children-first and so are their member lists, so the
	// reverse visits every operator after all of its consumers.
	for i := len(g.Subplans) - 1; i >= 0; i-- {
		ops := g.Subplans[i].Ops
		for k := len(ops) - 1; k >= 0; k-- {
			o := ops[k]
			switch o.Kind {
			case mqo.KindJoin:
				for _, p := range o.Preds {
					use(o, p)
				}
				r := read[o]
				var cols []int
				for c := range o.Schema() {
					if roots[o] || r != nil && r[c] {
						cols = append(cols, c)
					}
				}
				lay[o] = cols
				l, rt := o.Children[0], o.Children[1]
				for _, e := range o.LeftKeys {
					use(l, e)
				}
				for _, e := range o.RightKeys {
					use(rt, e)
				}
				lw := len(l.Schema())
				for _, c := range cols {
					if c < lw {
						need(l, c)
					} else {
						need(rt, c-lw)
					}
				}
			case mqo.KindProject:
				for _, ne := range o.Exprs {
					use(o.Children[0], ne.E)
				}
			case mqo.KindAggregate:
				for _, ge := range o.GroupBy {
					use(o.Children[0], ge.E)
				}
				for _, a := range o.Aggs {
					if a.Arg != nil {
						use(o.Children[0], a.Arg)
					}
				}
			}
		}
	}
	return lay
}

// cols returns the logical output columns o emits, in emission order.
func (l layouts) cols(o *mqo.Op) []int {
	if cols, ok := l[o]; ok {
		return cols
	}
	full := make([]int, len(o.Schema()))
	for c := range full {
		full[c] = c
	}
	return full
}

// colMap maps o's logical output columns to their positions in its
// physical rows; nil when o emits its full schema.
func (l layouts) colMap(o *mqo.Op) map[int]int {
	cols, ok := l[o]
	if !ok {
		return nil
	}
	m := make(map[int]int, len(cols))
	for p, c := range cols {
		m[c] = p
	}
	return m
}

// over rewrites e, written over o's logical schema, onto o's physical
// output rows.
func (l layouts) over(o *mqo.Op, e expr.Expr) expr.Expr {
	return remapCols(e, l.colMap(o))
}

// remapCols rewrites e's columns through m (nil: unchanged). Every column e
// reads must be in m: a missing one means the liveness pass dropped a
// column a consumer reads, which would silently read a neighbour.
func remapCols(e expr.Expr, m map[int]int) expr.Expr {
	if m == nil {
		return e
	}
	for _, c := range expr.Columns(e) {
		if _, ok := m[c]; !ok {
			panic(fmt.Sprintf("exec: column %d of %s is not in its producer's layout", c, e))
		}
	}
	return expr.Remap(e, m)
}

// sameLayouts reports whether every member join of the old executor se keeps
// the same columns under the new graph as its state-identical counterpart in
// the new subplan sub: the condition for a graft to adopt se, whose output
// log, arrangements and compiled expressions are all in the old layout.
func sameLayouts(se *SubplanExec, sub *mqo.Subplan, oldLay, newLay layouts) bool {
	ops := se.pair(sub)
	for i, n := range se.nodes {
		if n.op.Kind == mqo.KindJoin && !slices.Equal(oldLay.cols(n.op), newLay.cols(ops[i])) {
			return false
		}
	}
	return true
}
