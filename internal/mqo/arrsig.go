package mqo

import (
	"sort"
	"strconv"
	"strings"

	"ishare/internal/expr"
)

// ArrangeKey identifies physically shareable operator state — an
// "arrangement" in the Shared Arrangements sense: a join build side or an
// aggregation group index whose contents are fully determined by (relation
// lineage, key columns, kind). Sig is an ID-free canonical rendering of
// that triple; two executors whose keys render to the same Sig may index
// the very same bytes. Order maps canonical query slots back to the
// operator's global query ids (Order[slot] = q), so sharers with different
// query numbering can remap tuple bitsets into a common canonical space.
//
// An empty Sig means the state is not shareable and must stay private:
// only arrangements over a linear scan→project…→project cone are
// pace-invariant. A cone containing a join or an aggregate emits a stream
// whose order (join) or content (aggregate emission deltas) depends on how
// the upstream subplan's firings interleave with others, so two sharers
// paced differently would disagree about the arrangement's version
// history.
type ArrangeKey struct {
	Sig   string
	Order []int
}

// JoinSideArrangeKey keys one build side of a join: the side's input cone
// arranged under that side's equi-join key expressions. The side index is
// deliberately not part of the signature — the left build side of X ⋈ Y
// and the right build side of Z ⋈ X arrange the same state whenever cone
// and key columns agree.
func JoinSideArrangeKey(op *Op, side int) ArrangeKey {
	keys := op.LeftKeys
	if side == 1 {
		keys = op.RightKeys
	}
	canons := make([]string, len(keys))
	for i, k := range keys {
		canons[i] = expr.Canon(k)
	}
	return arrangeKey("joinside{"+strings.Join(canons, ",")+"}", op.Children[side], op.Queries)
}

// AggIndexArrangeKey keys an aggregation's group index: the input cone
// arranged under the GROUP BY key expressions. Only the key→group mapping
// is shared — accumulators are per-query state and stay with each sharer —
// so the aggregate function list is not part of the identity.
func AggIndexArrangeKey(op *Op) ArrangeKey {
	canons := make([]string, len(op.GroupBy))
	for i, g := range op.GroupBy {
		canons[i] = expr.Canon(g.E)
	}
	return arrangeKey("aggidx{"+strings.Join(canons, ",")+"}", op.Children[0], op.Queries)
}

// coneLinear reports whether the arrangement's input cone consists purely
// of scan and project nodes, whose output stream (content and order) is a
// function of the table log alone.
func coneLinear(o *Op) bool {
	for {
		switch o.Kind {
		case KindScan:
			return true
		case KindProject:
			o = o.Children[0]
		default:
			return false
		}
	}
}

// arrangeKey canonicalizes (kind+keys, cone, query set). Queries are
// renamed to canonical slots ordered by their per-query cone fingerprint
// (ties broken by global id — fingerprint-equal queries are
// indistinguishable inside the cone, so which one gets the lower slot
// cannot be observed). Renaming is what lets k clones of the same query,
// or the same query admitted into different plans, land on one signature.
func arrangeKey(kind string, cone *Op, r Bitset) ArrangeKey {
	if !coneLinear(cone) {
		return ArrangeKey{}
	}
	members := r.Members()
	type qfp struct {
		q  int
		fp string
	}
	fps := make([]qfp, len(members))
	for i, q := range members {
		fps[i] = qfp{q: q, fp: coneFingerprint(cone, q)}
	}
	sort.Slice(fps, func(i, j int) bool {
		if fps[i].fp != fps[j].fp {
			return fps[i].fp < fps[j].fp
		}
		return fps[i].q < fps[j].q
	})
	order := make([]int, len(fps))
	slot := make(map[int]int, len(fps))
	for i, e := range fps {
		order[i] = e.q
		slot[e.q] = i
	}
	var b strings.Builder
	b.WriteString(kind)
	b.WriteString("@")
	b.WriteString(strconv.Itoa(len(members)))
	b.WriteString(":")
	coneSig(&b, cone, members, slot)
	return ArrangeKey{Sig: b.String(), Order: order}
}

// coneFingerprint renders query q's view of the cone: the chain of marker
// predicates it is subject to on the way down to the scan. Fingerprints
// are only ever compared between queries of one cone — the structure
// around the predicates is shared — so equal fingerprints mean the two
// queries' bits evolve identically through the cone.
func coneFingerprint(o *Op, q int) string {
	var b strings.Builder
	for {
		if p, ok := o.Preds[q]; ok {
			b.WriteString(expr.Canon(p))
		}
		b.WriteString("/")
		if o.Kind == KindScan {
			return b.String()
		}
		o = o.Children[0]
	}
}

// coneSig renders the cone restricted to the arranged operator's query
// set, with queries renamed to canonical slots. Unlike the state signatures it
// ignores subplan boundaries on purpose: materializing a cone prefix into
// a buffer relays the stream verbatim, so decomposed and shared builds of
// the same cone must render — and share — identically.
func coneSig(b *strings.Builder, o *Op, members []int, slot map[int]int) {
	o.render(b, func(i int) { coneSig(b, o.Children[i], members, slot) })
	type slotPred struct {
		slot  int
		canon string
	}
	var ps []slotPred
	for _, q := range members {
		if p, ok := o.Preds[q]; ok {
			ps = append(ps, slotPred{slot: slot[q], canon: expr.Canon(p)})
		}
	}
	if len(ps) == 0 {
		return
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].slot < ps[j].slot })
	b.WriteString("σ{")
	for i, p := range ps {
		if i > 0 {
			b.WriteString(";")
		}
		b.WriteString("s")
		b.WriteString(strconv.Itoa(p.slot))
		b.WriteString(":")
		b.WriteString(p.canon)
	}
	b.WriteString("}")
}
