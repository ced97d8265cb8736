package mqo

import (
	"fmt"
	"strconv"

	"ishare/internal/expr"
	"ishare/internal/plan"
	"ishare/internal/trace"
)

// Build merges the queries' logical plans into one shared DAG.
//
// Each plan is first normalized: interior projections are inlined into their
// consumers (so operator schemas are fully determined by plan structure) and
// select operators are folded into per-query output predicates on the
// operator they filter. Normalized cores are then merged bottom-up by
// signature: operators with equal signatures are shared, their query sets
// unioned, and differing predicates kept per query as marker selects. Each
// query keeps a private root projection that produces its results.
func Build(queries []plan.Query) (*SharedPlan, error) {
	return BuildWithOptions(queries, BuildOptions{})
}

// BuildOptions customizes sharing decisions.
type BuildOptions struct {
	// Classes assigns query q to a sharing class at the operator whose
	// base (class-free) signature is sig. Operators merge only within one
	// class, so iShare's decomposition can rebuild a plan with selected
	// subplans "unshared" into per-partition copies. A nil function (or a
	// uniform return value) reproduces maximal sharing.
	Classes func(sig string, q int) int
	// Trace optionally records a build span with sharing statistics.
	Trace *trace.Tracer
}

// BuildWithOptions merges the queries' plans under the given sharing
// constraints.
func BuildWithOptions(queries []plan.Query, opts BuildOptions) (*SharedPlan, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("mqo: no queries")
	}
	buildStart := opts.Trace.Since()
	if len(queries) > MaxQueries {
		return nil, fmt.Errorf("mqo: %d queries exceed the %d-query bitvector limit", len(queries), MaxQueries)
	}
	sp := &SharedPlan{}
	b := &builder{sp: sp, bySig: make(map[string]*Op), classes: opts.Classes}
	active := 0
	for q, query := range queries {
		if query.Root == nil {
			// An inactive slot: a query that has been retired from (or not
			// yet admitted to) a live plan. The slot stays so query ids —
			// and therefore tuple bitvector positions — never shift, but it
			// contributes no operators. See opt.Live.
			sp.QueryRoots = append(sp.QueryRoots, nil)
			sp.QueryNames = append(sp.QueryNames, query.Name)
			continue
		}
		active++
		if err := plan.Validate(query.Root); err != nil {
			return nil, fmt.Errorf("mqo: query %s: %w", query.Name, err)
		}
		core, projExprs, err := normalize(query.Root)
		if err != nil {
			return nil, fmt.Errorf("mqo: query %s: %w", query.Name, err)
		}
		coreOp, err := b.buildOp(core, q)
		if err != nil {
			return nil, fmt.Errorf("mqo: query %s: %w", query.Name, err)
		}
		// A root projection is private to its query, so its query, not its
		// list, identifies it.
		root := sp.NewOp(Payload{Kind: KindProject, Exprs: projExprs})
		root.Queries = Bit(q)
		root.Children = []*Op{coreOp}
		at := "project@" + root.Queries.String()
		root.SigBase = at + "[" + coreOp.SigBase + "]"
		root.sigDedup = at + "[" + coreOp.sigDedup + "]"
		coreOp.Parents = append(coreOp.Parents, root)
		sp.QueryRoots = append(sp.QueryRoots, root)
		sp.QueryNames = append(sp.QueryNames, query.Name)
	}
	if active == 0 {
		return nil, fmt.Errorf("mqo: no active queries (%d inactive slots)", len(queries))
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if tr := opts.Trace; tr != nil {
		shared := 0
		for _, o := range sp.Ops {
			if o.Queries.Count() > 1 {
				shared++
			}
		}
		pid := tr.Process("optimizer")
		tr.Thread(pid, 3, "build")
		tr.Span(pid, 3, "build", "mqo.build", buildStart, tr.Since(),
			trace.Arg{Key: "queries", Value: len(queries)},
			trace.Arg{Key: "ops", Value: len(sp.Ops)},
			trace.Arg{Key: "shared_ops", Value: shared})
		tr.Count("mqo.builds", 1)
	}
	return sp, nil
}

type builder struct {
	sp      *SharedPlan
	bySig   map[string]*Op
	classes func(sig string, q int) int
}

// buildOp merges one normalized core tree into the DAG for query q.
func (b *builder) buildOp(c *cnode, q int) (*Op, error) {
	children := make([]*Op, len(c.children))
	for i, cc := range c.children {
		op, err := b.buildOp(cc, q)
		if err != nil {
			return nil, err
		}
		children[i] = op
	}
	baseSig := c.signatureOver(children, func(o *Op) string { return o.SigBase })
	class := 0
	if b.classes != nil {
		class = b.classes(baseSig, q)
	}
	// The dedup signature composes the children's classed signatures, so a
	// parent of differently-classed children splits automatically — the
	// paper's query-set subsumption alignment.
	sig := c.signatureOver(children, func(o *Op) string { return o.sigDedup }) + "@" + strconv.Itoa(class)
	op, shared := b.bySig[sig]
	predConflict := false
	if shared && c.pred != nil {
		if existing, ok := op.Preds[q]; ok && expr.Canon(existing) != expr.Canon(c.pred) {
			// The same query reaches this operator twice with different
			// predicates (e.g. a self-join over differently filtered
			// instances). Marker semantics cannot express two different
			// filters for one query at one operator, so this occurrence
			// gets a private copy.
			predConflict = true
		}
	}
	if !shared || predConflict {
		op = b.sp.NewOp(c.Payload)
		op.Children = children
		op.SigBase = baseSig
		op.sigDedup = sig
		if predConflict {
			// A private copy must also LOOK private to prospective
			// parents: reusing the shared signature would merge parents
			// of the copy with parents of the shared op and break
			// query-set subsumption.
			op.sigDedup = fmt.Sprintf("%s!priv%d", sig, op.ID)
			op.SigBase = fmt.Sprintf("%s!priv%d", baseSig, op.ID)
		}
		for _, ch := range children {
			ch.Parents = append(ch.Parents, op)
		}
		if !predConflict {
			b.bySig[sig] = op
		}
	}
	op.Queries = op.Queries.With(q)
	if c.pred != nil {
		// A repeat visit by the same query carries an identical predicate
		// (the conflict check above forced a private copy otherwise), so
		// overwriting is safe.
		op.Preds[q] = c.pred
	}
	return op, nil
}

// cnode is a normalized plan node: scans, joins and aggregates only, with
// select predicates folded into pred (applied to this node's output) and all
// interior projections inlined.
type cnode struct {
	Payload
	pred     expr.Expr
	children []*cnode
}

func (c *cnode) width() int {
	switch c.Kind {
	case KindScan:
		return len(c.Table.Columns)
	case KindJoin:
		return c.children[0].width() + c.children[1].width()
	case KindAggregate:
		return len(c.GroupBy) + len(c.Aggs)
	default:
		return 0
	}
}

// normalize rewrites a bound plan into (core tree, root projection list).
func normalize(root plan.Node) (*cnode, []plan.NamedExpr, error) {
	if p, ok := root.(*plan.Project); ok {
		core, m, err := rewrite(p.Input)
		if err != nil {
			return nil, nil, err
		}
		exprs := make([]plan.NamedExpr, len(p.Exprs))
		for i, ne := range p.Exprs {
			exprs[i] = plan.NamedExpr{Name: ne.Name, E: subst(ne.E, m)}
		}
		return core, exprs, nil
	}
	core, m, err := rewrite(root)
	if err != nil {
		return nil, nil, err
	}
	exprs := make([]plan.NamedExpr, len(m))
	for i, f := range root.Schema() {
		exprs[i] = plan.NamedExpr{Name: f.Name, E: m[i]}
	}
	return core, exprs, nil
}

// rewrite converts a plan subtree into a core tree plus an output map: the
// i'th entry is an expression over the core's output computing the subtree's
// i'th column.
func rewrite(n plan.Node) (*cnode, []expr.Expr, error) {
	switch x := n.(type) {
	case *plan.Scan:
		c := &cnode{Payload: Payload{Kind: KindScan, Table: x.Table}}
		m := identityMap(n.Schema())
		return c, m, nil
	case *plan.Select:
		c, m, err := rewrite(x.Input)
		if err != nil {
			return nil, nil, err
		}
		p := subst(x.Pred, m)
		c.pred = expr.And(c.pred, p)
		return c, m, nil
	case *plan.Project:
		c, m, err := rewrite(x.Input)
		if err != nil {
			return nil, nil, err
		}
		out := make([]expr.Expr, len(x.Exprs))
		for i, ne := range x.Exprs {
			out[i] = subst(ne.E, m)
		}
		return c, out, nil
	case *plan.Aggregate:
		in, m, err := rewrite(x.Input)
		if err != nil {
			return nil, nil, err
		}
		c := &cnode{Payload: Payload{Kind: KindAggregate}, children: []*cnode{in}}
		c.GroupBy = make([]plan.NamedExpr, len(x.GroupBy))
		for i, g := range x.GroupBy {
			c.GroupBy[i] = plan.NamedExpr{Name: g.Name, E: subst(g.E, m)}
		}
		c.Aggs = make([]plan.AggSpec, len(x.Aggs))
		for i, a := range x.Aggs {
			spec := plan.AggSpec{Func: a.Func, Name: a.Name}
			if a.Arg != nil {
				spec.Arg = subst(a.Arg, m)
			}
			c.Aggs[i] = spec
		}
		return c, identityMap(x.Schema()), nil
	case *plan.Join:
		l, lm, err := rewrite(x.Left)
		if err != nil {
			return nil, nil, err
		}
		r, rm, err := rewrite(x.Right)
		if err != nil {
			return nil, nil, err
		}
		c := &cnode{Payload: Payload{Kind: KindJoin}, children: []*cnode{l, r}}
		for i := range x.LeftKeys {
			c.LeftKeys = append(c.LeftKeys, lm[x.LeftKeys[i]])
			c.RightKeys = append(c.RightKeys, rm[x.RightKeys[i]])
		}
		lw := l.width()
		shift := make(map[int]int)
		for i := 0; i < r.width(); i++ {
			shift[i] = i + lw
		}
		out := make([]expr.Expr, 0, len(lm)+len(rm))
		out = append(out, lm...)
		for _, e := range rm {
			out = append(out, expr.Remap(e, shift))
		}
		return c, out, nil
	default:
		return nil, nil, fmt.Errorf("mqo: unsupported plan node %T", n)
	}
}

func identityMap(fields []plan.Field) []expr.Expr {
	m := make([]expr.Expr, len(fields))
	for i, f := range fields {
		m[i] = &expr.Column{Index: i, Name: f.Name, Kind: f.Kind}
	}
	return m
}

// subst replaces every column reference in e with the mapped expression.
func subst(e expr.Expr, m []expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.Column:
		return m[n.Index]
	case *expr.Const:
		return n
	case *expr.Binary:
		return &expr.Binary{Op: n.Op, L: subst(n.L, m), R: subst(n.R, m)}
	case *expr.Unary:
		return &expr.Unary{Op: n.Op, E: subst(n.E, m)}
	case *expr.Like:
		return expr.NewLike(subst(n.E, m), n.Pattern, n.Negate)
	default:
		return e
	}
}
