package mqo

import (
	"fmt"
	"strings"

	"ishare/internal/catalog"
	"ishare/internal/expr"
	"ishare/internal/plan"
)

// Payload is what an operator computes, apart from its inputs, its query set
// and its markers. Every operator identity — the merge and base signatures,
// the local, loose and restricted state signatures, and the arrangement
// keys' cone renderings — is this payload rendered by render, plus that
// family's own decorations, so a field added here is identified everywhere
// or nowhere.
type Payload struct {
	// Kind selects the fields below.
	Kind Kind
	// Table is the scanned base relation (KindScan).
	Table *catalog.Table
	// LeftKeys and RightKeys are equi-join key expressions over the left
	// and right child schemas (KindJoin). Empty lists mean a cross join.
	LeftKeys, RightKeys []expr.Expr
	// GroupBy and Aggs define the aggregation (KindAggregate).
	GroupBy []plan.NamedExpr
	Aggs    []plan.AggSpec
	// Exprs is the projection list (KindProject).
	Exprs []plan.NamedExpr
}

// render writes the payload's identity to b, calling child(i) where input
// i's rendering belongs; the caller decides what an input renders as (its
// signature, a subplan slot, its inlined cone). Expressions render in
// canonical form. It panics on a kind it cannot render, so no operator is
// ever identified by less than its payload.
func (p *Payload) render(b *strings.Builder, child func(i int)) {
	switch p.Kind {
	case KindScan:
		b.WriteString("scan(")
		b.WriteString(p.Table.Name)
		b.WriteString(")")
		return
	case KindJoin:
		b.WriteString("join{")
		for i := range p.LeftKeys {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(p.LeftKeys[i]))
			b.WriteString("=")
			b.WriteString(expr.Canon(p.RightKeys[i]))
		}
		b.WriteString("}[")
		child(0)
		b.WriteString("|")
		child(1)
	case KindAggregate:
		b.WriteString("agg{")
		writeNamed(b, p.GroupBy)
		b.WriteString("|")
		for i, a := range p.Aggs {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(a.Func.String())
			b.WriteString("(")
			if a.Arg != nil {
				b.WriteString(expr.Canon(a.Arg))
			} else {
				b.WriteString("*")
			}
			b.WriteString(")")
		}
		b.WriteString("}[")
		child(0)
	case KindProject:
		b.WriteString("project{")
		writeNamed(b, p.Exprs)
		b.WriteString("}[")
		child(0)
	default:
		panic(fmt.Sprintf("mqo: no identity rendering for %s", p.Kind))
	}
	b.WriteString("]")
}

// writeNamed writes the canonical forms of the expressions, comma-separated.
func writeNamed(b *strings.Builder, list []plan.NamedExpr) {
	for i, ne := range list {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(expr.Canon(ne.E))
	}
}

// signatureOver renders the payload over its inputs' signatures, as sig
// selects them. The builder is sized for the inputs plus an estimate of the
// payload, so a signature usually costs one allocation.
func (p *Payload) signatureOver(inputs []*Op, sig func(*Op) string) string {
	n := 8 + 32*(len(p.LeftKeys)+len(p.GroupBy)+len(p.Aggs)+len(p.Exprs))
	if p.Table != nil {
		n += len(p.Table.Name)
	}
	for _, in := range inputs {
		n += len(sig(in))
	}
	var b strings.Builder
	b.Grow(n)
	p.render(&b, func(i int) { b.WriteString(sig(inputs[i])) })
	return b.String()
}
