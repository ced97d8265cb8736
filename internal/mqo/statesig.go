package mqo

import (
	"sort"
	"strconv"
	"strings"

	"ishare/internal/expr"
)

// This file computes *state signatures*: ID-free structural identities for
// subplans, used to decide what a plan revision (a query admitted to or
// retired from a running plan) keeps — operator state (exec.Runner.Graft) and
// memoized simulations (pace.Replan). Two subplans with equal local state
// signatures process equal inputs identically — same operator tree, same
// query-slot bitsets, same per-query marker predicates — so when their
// inputs are paired too (MatchSubplans) the old subplan's accumulated state
// (join build sides, group indexes, ordset accumulators, output log) is
// byte-for-byte what a from-scratch run of the new subplan would have built
// over the same history.
//
// The restricted cone signature (one query set's view of a scan/project
// cone) lets a graft keep a subplan whose input cone changed only for other
// queries.
//
// The merge and base signatures used for sharing (Op.BaseSignature) are NOT
// suitable here: they embed operator IDs in private-copy suffixes ("!privN"),
// identify root projections by query instead of by list, exclude predicates,
// and ignore query-slot membership — all of which matter for state identity.
// State signatures render each operator's payload (Payload.render) with
// their own decorations and never touch sigDedup/SigBase.

// LocalStateSignatures returns each subplan's *local* state signature,
// indexed by subplan ID: its member operators, query-slot bitsets and
// per-query markers, with every child subplan written as a positional slot,
// numbered by first appearance. Equal local signatures mean two subplans
// stamp, mark and combine equal inputs identically; whether their inputs are
// equal is left to the caller, input by input (MatchSubplans,
// exec.Runner.Graft).
func LocalStateSignatures(g *Graph) []string {
	return localSignatures(g, false)
}

// LooseStateSignatures is the deliberately unsound variant of the local
// signature backing the admission fault hook (exec.DebugGraftLooseMatch):
// query-slot bitsets are masked out and marker predicates lose their query
// attribution. Two subplans that differ only in which query slots they serve
// become "equal" — exactly the classic admission bug where an admitted query
// is grafted onto existing state without catching up its bits. Production
// code must never call this; the churn differential oracle proves it would
// be caught if it did.
func LooseStateSignatures(g *Graph) []string {
	return localSignatures(g, true)
}

func localSignatures(g *Graph, loose bool) []string {
	sigs := make([]string, len(g.Subplans))
	for _, s := range g.Subplans {
		var b strings.Builder
		stateSigOp(&b, g, s, s.Root, &sigStyle{loose: loose, slots: make(map[*Subplan]int)})
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
	stateSigOp(&b, g, s, s.Root, &sigStyle{restrict: true, mask: q})
	return b.String(), true
}

// sigStyle selects a state-signature rendering: the local signature, which
// renders child subplans as positional slots, or the restricted cone
// signature, which renders them inline.
type sigStyle struct {
	// loose masks query-slot bitsets and marker attribution (the fault hook).
	loose bool
	// slots numbers the child subplans of a local signature.
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
func stateSigOp(b *strings.Builder, g *Graph, s *Subplan, o *Op, st *sigStyle) {
	o.render(b, func(i int) { stateSigChild(b, g, s, o.Children[i], st) })
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

func stateSigChild(b *strings.Builder, g *Graph, s *Subplan, c *Op, st *sigStyle) {
	cs := g.SubplanOf(c)
	switch {
	case cs == s:
		stateSigOp(b, g, s, c, st)
	case st.restrict:
		b.WriteString("sub[")
		stateSigOp(b, g, cs, cs.Root, st)
		b.WriteString("]")
	default:
		n, ok := st.slots[cs]
		if !ok {
			n = len(st.slots)
			st.slots[cs] = n
		}
		b.WriteString("slot")
		b.WriteString(strconv.Itoa(n))
	}
}

// MatchSubplans pairs each subplan of newG with a state-identical subplan of
// oldG, returning newID → oldID. A pair has equal local state signatures and
// paired inputs: walking both member trees in operator pre-order, each
// child-subplan input of the new subplan is already paired with the old
// subplan's input in the same place — the rule exec.Runner.Graft applies to
// an unchanged input. A pair's whole input cones are therefore pairs, so its
// accumulated state and its memoized simulations carry over. Old subplans
// are consumed at most once. Unmatched new subplans are simply absent from
// the map — a conservative miss is always safe (pace.Replan simulates them
// afresh).
func MatchSubplans(oldG, newG *Graph) map[int]int {
	oldSigs, newSigs := LocalStateSignatures(oldG), LocalStateSignatures(newG)
	bySig := make(map[string][]*Subplan)
	for _, s := range oldG.Subplans {
		bySig[oldSigs[s.ID]] = append(bySig[oldSigs[s.ID]], s)
	}
	used := make([]bool, len(oldG.Subplans))
	match := make(map[int]int)
	for _, s := range newG.Subplans { // children-first: inputs are paired first
		for _, cand := range bySig[newSigs[s.ID]] {
			if !used[cand.ID] && inputsPaired(oldG, newG, cand.Root, s.Root, match) {
				used[cand.ID] = true
				match[s.ID] = cand.ID
				break
			}
		}
	}
	return match
}

// inputsPaired walks two member trees of equal local signature from o and n
// in operator pre-order and reports whether each child-subplan input of n is
// paired in match with o's input in the same place.
func inputsPaired(oldG, newG *Graph, o, n *Op, match map[int]int) bool {
	for i, nc := range n.Children {
		oc := o.Children[i]
		if ns := newG.SubplanOf(nc); ns != newG.SubplanOf(n) {
			if got, ok := match[ns.ID]; !ok || got != oldG.SubplanOf(oc).ID {
				return false
			}
		} else if !inputsPaired(oldG, newG, oc, nc, match) {
			return false
		}
	}
	return true
}
