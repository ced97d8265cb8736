// Package plan defines single-query logical plans: immutable operator trees
// over scan, select, project, aggregate and inner equi-join — the operator
// set supported by the paper's shared incremental execution engine — plus
// name binding from parsed SQL. The multi-query optimizer normalizes these
// trees and identifies sharable subplans on its own operators (mqo.Payload).
package plan

import (
	"fmt"
	"strings"

	"ishare/internal/catalog"
	"ishare/internal/expr"
	"ishare/internal/value"
)

// Field names one output column of an operator.
type Field struct {
	Name string
	Kind value.Kind
}

// Node is a logical plan operator.
type Node interface {
	// Schema lists the operator's output columns.
	Schema() []Field
	// Children returns the input operators, left to right.
	Children() []Node
	// Describe renders a one-line summary for explain output.
	Describe() string
}

// Scan reads a base table (the table's delta log during incremental
// execution).
type Scan struct {
	Table *catalog.Table
}

// Schema returns the table's columns.
func (s *Scan) Schema() []Field {
	out := make([]Field, len(s.Table.Columns))
	for i, c := range s.Table.Columns {
		out[i] = Field{Name: c.Name, Kind: c.Type}
	}
	return out
}

// Children returns no inputs.
func (s *Scan) Children() []Node { return nil }

// Describe renders the scan.
func (s *Scan) Describe() string { return "Scan " + s.Table.Name }

// Select filters rows by a predicate.
type Select struct {
	Input Node
	Pred  expr.Expr
}

// Schema passes through the input schema.
func (s *Select) Schema() []Field { return s.Input.Schema() }

// Children returns the single input.
func (s *Select) Children() []Node { return []Node{s.Input} }

// Describe renders the predicate.
func (s *Select) Describe() string { return "Select " + expr.Describe(s.Pred) }

// NamedExpr is a projection item.
type NamedExpr struct {
	Name string
	E    expr.Expr
}

// Project computes a list of named expressions.
type Project struct {
	Input Node
	Exprs []NamedExpr
}

// Schema derives fields from the projection list.
func (p *Project) Schema() []Field {
	out := make([]Field, len(p.Exprs))
	for i, ne := range p.Exprs {
		out[i] = Field{Name: ne.Name, Kind: ne.E.Type()}
	}
	return out
}

// Children returns the single input.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe renders the projection names.
func (p *Project) Describe() string {
	names := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		names[i] = ne.Name
	}
	return "Project " + strings.Join(names, ", ")
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate function constants.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// Incremental reports whether the function maintains results under deletion
// without rescanning state. MIN/MAX must rescan when the current extremum is
// retracted — the paper's canonical non-incrementable case (Q15).
func (f AggFunc) Incremental() bool { return f != AggMin && f != AggMax }

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func AggFunc
	// Arg is the aggregated expression; nil for COUNT(*).
	Arg expr.Expr
	// Name is the output column name.
	Name string
}

// ResultKind returns the output kind of the aggregate.
func (a AggSpec) ResultKind() value.Kind {
	switch a.Func {
	case AggCount:
		return value.KindInt
	case AggAvg:
		return value.KindFloat
	default:
		if a.Arg == nil {
			return value.KindFloat
		}
		if k := a.Arg.Type(); k == value.KindInt {
			return value.KindInt
		}
		return value.KindFloat
	}
}

func (a AggSpec) signature() string {
	arg := "*"
	if a.Arg != nil {
		arg = expr.Canon(a.Arg)
	}
	return a.Func.String() + "(" + arg + ")"
}

// Aggregate groups rows and computes aggregates. The output schema is the
// group-by expressions followed by the aggregate results.
type Aggregate struct {
	Input   Node
	GroupBy []NamedExpr
	Aggs    []AggSpec
}

// Schema returns group-by columns then aggregate columns.
func (a *Aggregate) Schema() []Field {
	out := make([]Field, 0, len(a.GroupBy)+len(a.Aggs))
	for _, g := range a.GroupBy {
		out = append(out, Field{Name: g.Name, Kind: g.E.Type()})
	}
	for _, s := range a.Aggs {
		out = append(out, Field{Name: s.Name, Kind: s.ResultKind()})
	}
	return out
}

// Children returns the single input.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Describe renders the aggregate.
func (a *Aggregate) Describe() string {
	parts := make([]string, 0, len(a.Aggs))
	for _, s := range a.Aggs {
		parts = append(parts, s.signature())
	}
	return fmt.Sprintf("Aggregate groups=%d %s", len(a.GroupBy), strings.Join(parts, ", "))
}

// Join is an inner equi-join. Keys are column positions in the respective
// child schemas; the output schema is left fields followed by right fields.
type Join struct {
	Left, Right         Node
	LeftKeys, RightKeys []int
}

// Schema concatenates the child schemas.
func (j *Join) Schema() []Field {
	l, r := j.Left.Schema(), j.Right.Schema()
	out := make([]Field, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe renders the join keys.
func (j *Join) Describe() string {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	keys := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		keys[i] = ls[j.LeftKeys[i]].Name + "=" + rs[j.RightKeys[i]].Name
	}
	return "Join " + strings.Join(keys, ", ")
}

// Query couples a named plan with its final-work constraint inputs.
type Query struct {
	// Name identifies the query in reports (e.g. "Q15").
	Name string
	// Root is the plan tree.
	Root Node
	// Present carries ORDER BY / LIMIT, applied when results are read.
	Present Presentation
}

// Validate checks operator invariants across the tree: join key arity and
// bounds, expression typing, and projection/aggregate column bounds.
func Validate(n Node) error {
	for _, c := range n.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	switch x := n.(type) {
	case *Select:
		if x.Pred == nil {
			return fmt.Errorf("plan: select with nil predicate")
		}
		if x.Pred.Type() != value.KindBool {
			return fmt.Errorf("plan: select predicate is %s, not BOOL", x.Pred.Type())
		}
		if err := checkCols(x.Pred, width(x.Input)); err != nil {
			return err
		}
		return expr.Validate(x.Pred)
	case *Project:
		if len(x.Exprs) == 0 {
			return fmt.Errorf("plan: empty projection")
		}
		for _, ne := range x.Exprs {
			if err := checkCols(ne.E, width(x.Input)); err != nil {
				return err
			}
			if err := expr.Validate(ne.E); err != nil {
				return err
			}
		}
	case *Aggregate:
		for _, g := range x.GroupBy {
			if err := checkCols(g.E, width(x.Input)); err != nil {
				return err
			}
		}
		for _, s := range x.Aggs {
			if s.Arg == nil {
				if s.Func != AggCount {
					return fmt.Errorf("plan: %s requires an argument", s.Func)
				}
				continue
			}
			if err := checkCols(s.Arg, width(x.Input)); err != nil {
				return err
			}
			if s.Func != AggCount && s.Func != AggMin && s.Func != AggMax && !s.Arg.Type().Numeric() {
				return fmt.Errorf("plan: %s over non-numeric %s", s.Func, s.Arg.Type())
			}
		}
	case *Join:
		// Empty key lists denote a cross join (used for scalar-subquery
		// joins); otherwise the key lists must align.
		if len(x.LeftKeys) != len(x.RightKeys) {
			return fmt.Errorf("plan: join needs matching key lists")
		}
		lw, rw := width(x.Left), width(x.Right)
		for i := range x.LeftKeys {
			if x.LeftKeys[i] < 0 || x.LeftKeys[i] >= lw {
				return fmt.Errorf("plan: join left key %d out of range", x.LeftKeys[i])
			}
			if x.RightKeys[i] < 0 || x.RightKeys[i] >= rw {
				return fmt.Errorf("plan: join right key %d out of range", x.RightKeys[i])
			}
		}
	}
	return nil
}

// width returns the number of n's output columns, len(n.Schema()), without
// building the schema.
func width(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return len(x.Table.Columns)
	case *Select:
		return width(x.Input)
	case *Project:
		return len(x.Exprs)
	case *Aggregate:
		return len(x.GroupBy) + len(x.Aggs)
	case *Join:
		return width(x.Left) + width(x.Right)
	}
	return len(n.Schema())
}

func checkCols(e expr.Expr, width int) error {
	for _, c := range expr.Columns(e) {
		if c < 0 || c >= width {
			return fmt.Errorf("plan: column index %d out of range (width %d)", c, width)
		}
	}
	return nil
}

// Explain renders the tree with indentation, one operator per line.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// Operators counts the operators in the tree.
func Operators(n Node) int {
	total := 1
	for _, c := range n.Children() {
		total += Operators(c)
	}
	return total
}

// Blocking reports whether the operator materializes all input before
// producing final results in batch execution. Aggregates are the blocking
// operators used by NoShare-Nonuniform's split points.
func Blocking(n Node) bool {
	_, ok := n.(*Aggregate)
	return ok
}
