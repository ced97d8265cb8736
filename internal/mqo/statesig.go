package mqo

import (
	"sort"
	"strconv"
	"strings"

	"ishare/internal/expr"
)

// This file computes *state signatures*: ID-free structural identities for
// subplans, used to decide which operator state may be carried over when a
// query is admitted to or retired from a running plan (online admission,
// exec.Runner.Graft). Two subplans with equal state signatures process their
// inputs identically — same operator tree, same query-slot bitsets, same
// per-query marker predicates — so the old subplan's accumulated state
// (join build sides, group indexes, ordset accumulators, output log) is
// byte-for-byte what a from-scratch run of the new subplan would have built
// over the same history.
//
// Two further renderings let a graft keep a subplan whose input cone changed
// only for other queries: the local signature (child subplans as positional
// slots) and the restricted cone signature (one query set's view of a
// scan/project cone).
//
// The dedup signatures used for sharing (Op.signature / Op.BaseSignature)
// are NOT suitable here: they embed operator IDs in private-copy suffixes
// ("!privN"), exclude projections and predicates, and ignore query-slot
// membership — all of which matter for state identity. State signatures are
// rendered directly from structure and never touch sigDedup/SigBase.

// StateSignatures returns each subplan's state signature, indexed by subplan
// ID. External child subplans are folded in recursively, so a signature
// pins the whole input cone: equal signatures imply equal inputs, equal
// bit-stamping, and therefore equal state after equal histories.
func StateSignatures(g *Graph) []string {
	return stateSignatures(g, false)
}

// LooseStateSignatures is the deliberately unsound variant backing the
// admission fault hook (exec.DebugGraftLooseMatch): query-slot bitsets are
// masked out and marker predicates lose their query attribution. Two
// subplans that differ only in which query slots they serve become
// "equal" — exactly the classic admission bug where an admitted query is
// grafted onto existing state without catching up its bits. Production code
// must never call this; the churn differential oracle proves it would be
// caught if it did.
func LooseStateSignatures(g *Graph) []string {
	return stateSignatures(g, true)
}

// LocalStateSignatures returns each subplan's *local* state signature: the
// strict rendering with every child subplan written as a positional slot,
// numbered by first appearance, instead of folding in the child's cone.
// Equal local signatures mean two subplans stamp, mark and combine equal
// inputs identically; whether their inputs are equal is left to the caller,
// slot by slot (exec.Runner.Graft's adoption rule).
func LocalStateSignatures(g *Graph) []string {
	sigs := make([]string, len(g.Subplans))
	for _, s := range g.Subplans {
		var b strings.Builder
		stateSigOp(&b, g, s, s.Root, nil, &sigStyle{slots: make(map[*Subplan]int)})
		sigs[s.ID] = b.String()
	}
	return sigs
}

// RestrictedConeSignature renders subplan s's whole input cone as the
// queries in q see it: every operator's query set intersected with q, and
// only q's marker predicates. ok is false unless the cone holds scans and
// projects only. Those operators stamp, mark and drop tuple by tuple, so two
// such cones with equal restricted signatures emit the same tuples in the
// same order once each tuple's bits are intersected with q and the tuples
// left empty are dropped. An aggregate's output clusters queries with equal
// values into shared tuples, so it has no such per-query view.
func RestrictedConeSignature(g *Graph, s *Subplan, q Bitset) (sig string, ok bool) {
	if !coneLinear(s.Root) {
		return "", false
	}
	var b strings.Builder
	stateSigOp(&b, g, s, s.Root, nil, &sigStyle{restrict: true, mask: q})
	return b.String(), true
}

func stateSignatures(g *Graph, loose bool) []string {
	sigs := make([]string, len(g.Subplans))
	st := &sigStyle{loose: loose}
	for _, s := range g.Subplans { // children-first: child sigs exist
		var b strings.Builder
		stateSigOp(&b, g, s, s.Root, sigs, st)
		sigs[s.ID] = b.String()
	}
	return sigs
}

// sigStyle selects a state-signature rendering. The zero value is the strict
// signature, which folds in each child subplan's signature from sigs.
type sigStyle struct {
	// loose masks query-slot bitsets and marker attribution (the fault hook).
	loose bool
	// slots, when non-nil, renders child subplans as positional slots
	// (LocalStateSignatures).
	slots map[*Subplan]int
	// restrict renders every query set intersected with mask and only mask's
	// markers, with child cones rendered inline (RestrictedConeSignature).
	restrict bool
	mask     Bitset
}

// stateSigOp renders the state signature of the operator tree rooted at o
// within subplan s. Ops outside s are subplan roots (multi-parent or query
// root), so the interior of a subplan is a proper tree and plain recursion
// terminates.
func stateSigOp(b *strings.Builder, g *Graph, s *Subplan, o *Op, sigs []string, st *sigStyle) {
	switch o.Kind {
	case KindScan:
		b.WriteString("scan(")
		b.WriteString(o.Table.Name)
		b.WriteString(")")
	case KindJoin:
		b.WriteString("join{")
		for i := range o.LeftKeys {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(o.LeftKeys[i]))
			b.WriteString("=")
			b.WriteString(expr.Canon(o.RightKeys[i]))
		}
		b.WriteString("}[")
		stateSigChild(b, g, s, o.Children[0], sigs, st)
		b.WriteString("|")
		stateSigChild(b, g, s, o.Children[1], sigs, st)
		b.WriteString("]")
	case KindAggregate:
		b.WriteString("agg{")
		for i, gb := range o.GroupBy {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(gb.E))
		}
		b.WriteString("|")
		for i, a := range o.Aggs {
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
		stateSigChild(b, g, s, o.Children[0], sigs, st)
		b.WriteString("]")
	case KindProject:
		b.WriteString("project{")
		for i, ne := range o.Exprs {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(expr.Canon(ne.E))
		}
		b.WriteString("}[")
		stateSigChild(b, g, s, o.Children[0], sigs, st)
		b.WriteString("]")
	}
	// State identity also needs the query-slot bitset (tuples are stamped
	// with it) and the per-query markers (they clear bits).
	switch {
	case st.loose:
		b.WriteString("@*")
	case st.restrict:
		b.WriteString("@")
		b.WriteString(o.Queries.Intersect(st.mask).String())
	default:
		b.WriteString("@")
		b.WriteString(o.Queries.String())
	}
	qs := make([]int, 0, len(o.Preds))
	for q := range o.Preds {
		if !st.restrict || st.mask.Has(q) {
			qs = append(qs, q)
		}
	}
	if len(qs) > 0 {
		sort.Ints(qs)
		b.WriteString("σ{")
		if st.loose {
			canons := make([]string, len(qs))
			for i, q := range qs {
				canons[i] = expr.Canon(o.Preds[q])
			}
			sort.Strings(canons)
			// Distinct values only: two queries carrying the same marker
			// must look like one, or admitting a second identical query
			// would (correctly) defeat the loose match the fault hook is
			// meant to force.
			uniq := canons[:0]
			for i, c := range canons {
				if i == 0 || c != canons[i-1] {
					uniq = append(uniq, c)
				}
			}
			b.WriteString(strings.Join(uniq, ";"))
		} else {
			for i, q := range qs {
				if i > 0 {
					b.WriteString(";")
				}
				b.WriteString("q")
				b.WriteString(strconv.Itoa(q))
				b.WriteString(":")
				b.WriteString(expr.Canon(o.Preds[q]))
			}
		}
		b.WriteString("}")
	}
}

func stateSigChild(b *strings.Builder, g *Graph, s *Subplan, c *Op, sigs []string, st *sigStyle) {
	cs := g.SubplanOf(c)
	switch {
	case cs == s:
		stateSigOp(b, g, s, c, sigs, st)
	case st.slots != nil:
		n, ok := st.slots[cs]
		if !ok {
			n = len(st.slots)
			st.slots[cs] = n
		}
		b.WriteString("slot")
		b.WriteString(strconv.Itoa(n))
	case st.restrict:
		b.WriteString("sub[")
		stateSigOp(b, g, cs, cs.Root, sigs, st)
		b.WriteString("]")
	default:
		b.WriteString("sub[")
		b.WriteString(sigs[cs.ID])
		b.WriteString("]")
	}
}

// MatchSubplans pairs each subplan of newG with a state-identical subplan of
// oldG, returning newID → oldID. A pair must have equal state signatures
// AND positionally corresponding children (each already matched to the old
// subplan's child in the same slot), so adopted state always sits on an
// adopted input cone. Old subplans are consumed at most once. Unmatched new
// subplans are simply absent from the map — a conservative miss is always
// safe (opt.Live's memo adoption simulates them afresh).
func MatchSubplans(oldG, newG *Graph) map[int]int {
	oldSigs := StateSignatures(oldG)
	newSigs := StateSignatures(newG)
	bySig := make(map[string][]*Subplan)
	for _, s := range oldG.Subplans {
		bySig[oldSigs[s.ID]] = append(bySig[oldSigs[s.ID]], s)
	}
	used := make(map[int]bool)
	match := make(map[int]int)
	for _, s := range newG.Subplans { // children-first: child matches exist
	cands:
		for _, cand := range bySig[newSigs[s.ID]] {
			if used[cand.ID] || len(cand.Children) != len(s.Children) {
				continue
			}
			for i, c := range s.Children {
				got, ok := match[c.ID]
				if !ok || got != cand.Children[i].ID {
					continue cands
				}
			}
			used[cand.ID] = true
			match[s.ID] = cand.ID
			break
		}
	}
	return match
}
