// Package mqo implements the multi-query optimizer: it merges single-query
// logical plans into one shared operator DAG by signature matching (as in
// SharedDB / Shared Workload Optimization), attaching per-query marker
// predicates to shared operators, and extracts the subplan graph that the
// pace optimizer, decomposition and execution engine operate on. Subplans
// are cut at operators with more than one parent, whose outputs are
// materialized into offset-tracked buffers.
package mqo

import (
	"fmt"
	"sort"
	"strings"

	"ishare/internal/expr"
	"ishare/internal/plan"
)

// Kind enumerates shared operator kinds.
type Kind uint8

// Operator kind constants.
const (
	KindScan Kind = iota
	KindJoin
	KindAggregate
	KindProject
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "Scan"
	case KindJoin:
		return "Join"
	case KindAggregate:
		return "Aggregate"
	case KindProject:
		return "Project"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one operator in the shared DAG. Following SharedDB, each operator
// carries the set of queries that use it; every intermediate tuple carries a
// bitvector saying which queries it is valid for. Select operators are not
// separate nodes: each operator owns optional per-query output predicates
// (Preds). A predicate failing for query q clears q's bit — it never drops a
// tuple another query still needs (the paper's σ* marker semantics) — and a
// tuple whose bits become empty is dropped.
type Op struct {
	// ID is unique within the shared plan.
	ID int
	// Payload is what the operator computes; its fields are promoted.
	Payload
	// Queries is the set of queries sharing this operator.
	Queries Bitset
	// Children are the input operators (0 for scans, 2 for joins, else 1).
	Children []*Op
	// Parents are the consuming operators.
	Parents []*Op
	// Preds maps query id to the marker predicate applied to this
	// operator's output for that query. Queries without an entry pass.
	Preds map[int]expr.Expr

	// SigBase is the operator's sharing signature with class suffixes
	// stripped: a stable identity that survives decomposition rebuilds.
	SigBase string
	// sigDedup is the signature used for merging, including sharing-class
	// suffixes.
	sigDedup string

	schema []plan.Field
}

// Schema returns the operator's output columns, memoized.
func (o *Op) Schema() []plan.Field {
	if o.schema != nil {
		return o.schema
	}
	switch o.Kind {
	case KindScan:
		out := make([]plan.Field, len(o.Table.Columns))
		for i, c := range o.Table.Columns {
			out[i] = plan.Field{Name: c.Name, Kind: c.Type}
		}
		o.schema = out
	case KindJoin:
		l, r := o.Children[0].Schema(), o.Children[1].Schema()
		out := make([]plan.Field, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		o.schema = out
	case KindAggregate:
		out := make([]plan.Field, 0, len(o.GroupBy)+len(o.Aggs))
		for _, g := range o.GroupBy {
			out = append(out, plan.Field{Name: g.Name, Kind: g.E.Type()})
		}
		for _, a := range o.Aggs {
			out = append(out, plan.Field{Name: a.Name, Kind: a.ResultKind()})
		}
		o.schema = out
	case KindProject:
		out := make([]plan.Field, len(o.Exprs))
		for i, ne := range o.Exprs {
			out[i] = plan.Field{Name: ne.Name, Kind: ne.E.Type()}
		}
		o.schema = out
	}
	return o.schema
}

// BaseSignature returns the structural signature without class suffixes: a
// stable operator identity across decomposition rebuilds.
func (o *Op) BaseSignature() string { return o.SigBase }

// Describe renders a one-line summary including the query set and markers.
func (o *Op) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s", o.Kind, o.Queries)
	switch o.Kind {
	case KindScan:
		fmt.Fprintf(&b, " %s", o.Table.Name)
	case KindJoin:
		keys := make([]string, len(o.LeftKeys))
		for i := range o.LeftKeys {
			keys[i] = o.LeftKeys[i].String() + "=" + o.RightKeys[i].String()
		}
		fmt.Fprintf(&b, " on %s", strings.Join(keys, ","))
		if len(keys) == 0 {
			b.WriteString(" cross")
		}
	case KindAggregate:
		fmt.Fprintf(&b, " groups=%d aggs=%d", len(o.GroupBy), len(o.Aggs))
	case KindProject:
		fmt.Fprintf(&b, " width=%d", len(o.Exprs))
	}
	if len(o.Preds) > 0 {
		qs := make([]int, 0, len(o.Preds))
		for q := range o.Preds {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		parts := make([]string, len(qs))
		for i, q := range qs {
			parts[i] = fmt.Sprintf("q%d:%s", q, expr.Describe(o.Preds[q]))
		}
		fmt.Fprintf(&b, " σ*{%s}", strings.Join(parts, "; "))
	}
	return b.String()
}

// SharedPlan is a shared operator DAG for a set of queries.
type SharedPlan struct {
	// Ops lists every operator, topologically sorted children-first.
	Ops []*Op
	// QueryRoots maps query id to its private root projection.
	QueryRoots []*Op
	// QueryNames maps query id to its display name.
	QueryNames []string

	nextID int
}

// NumQueries returns the number of queries in the plan.
func (sp *SharedPlan) NumQueries() int { return len(sp.QueryRoots) }

// AllQueries returns the set of every active query id (inactive slots —
// nil QueryRoots entries from retired/not-yet-admitted queries — are
// skipped).
func (sp *SharedPlan) AllQueries() Bitset {
	var b Bitset
	for q, root := range sp.QueryRoots {
		if root != nil {
			b = b.With(q)
		}
	}
	return b
}

// NewOp allocates an operator computing p with a fresh id and registers it.
func (sp *SharedPlan) NewOp(p Payload) *Op {
	op := &Op{ID: sp.nextID, Payload: p, Preds: make(map[int]expr.Expr)}
	sp.nextID++
	sp.Ops = append(sp.Ops, op)
	return op
}

// Explain renders the DAG query by query, sharing marked by operator ids.
func (sp *SharedPlan) Explain() string {
	var b strings.Builder
	for q, root := range sp.QueryRoots {
		if root == nil {
			fmt.Fprintf(&b, "-- %s (inactive) --\n", sp.QueryNames[q])
			continue
		}
		fmt.Fprintf(&b, "-- %s --\n", sp.QueryNames[q])
		sp.explainOp(&b, root, 0)
	}
	return b.String()
}

func (sp *SharedPlan) explainOp(b *strings.Builder, o *Op, depth int) {
	fmt.Fprintf(b, "%s#%d %s\n", strings.Repeat("  ", depth), o.ID, o.Describe())
	for _, c := range o.Children {
		sp.explainOp(b, c, depth+1)
	}
}

// Validate checks DAG invariants: parent/child symmetry, query-set
// subsumption (an operator's query set contains each parent's), and marker
// predicates belonging to the operator's query set.
func (sp *SharedPlan) Validate() error {
	for _, o := range sp.Ops {
		for _, p := range o.Parents {
			if !hasOp(p.Children, o) {
				return fmt.Errorf("mqo: op %d parent %d does not list it as child", o.ID, p.ID)
			}
			if !o.Queries.Contains(p.Queries) {
				return fmt.Errorf("mqo: op %d queries %s do not contain parent %d queries %s",
					o.ID, o.Queries, p.ID, p.Queries)
			}
		}
		for _, c := range o.Children {
			if !hasOp(c.Parents, o) {
				return fmt.Errorf("mqo: op %d child %d does not list it as parent", o.ID, c.ID)
			}
		}
		for q := range o.Preds {
			if !o.Queries.Has(q) {
				return fmt.Errorf("mqo: op %d has predicate for non-member query %d", o.ID, q)
			}
		}
		if o.Queries.Empty() {
			return fmt.Errorf("mqo: op %d has an empty query set", o.ID)
		}
	}
	return nil
}

func hasOp(list []*Op, o *Op) bool {
	for _, x := range list {
		if x == o {
			return true
		}
	}
	return false
}

// SharedOpCount returns the number of operators used by two or more queries.
func (sp *SharedPlan) SharedOpCount() int {
	n := 0
	for _, o := range sp.Ops {
		if o.Queries.Count() > 1 {
			n++
		}
	}
	return n
}
