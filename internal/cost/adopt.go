package cost

import (
	"slices"

	"ishare/internal/mqo"
)

// AdoptMemo warm-starts this model's memo tables from a model built for a
// previous revision of the same plan, using match (new subplan ID → old
// subplan ID). A memo key is the subplan's own pace plus its children's
// entry ids, so adopting an entry means translating those ids from the old
// children's tables into the new ones': subplans are adopted children-first,
// each entry keeping its pace and taking its children's translated ids. A
// subplan adopts only if each of its children is matched to a child of its
// old counterpart and adopted in turn — so its entire descendant cone is
// matched — and only if the two serve the same queries. The caller vouches
// that each matched pair simulates identically: same inputs and the same
// correction factors. old must not be m. Evaluations of m made before the
// call are no longer evaluated relative to (see EvaluateDelta). Returns the
// number of entries adopted.
//
// pace.Replan is its one caller: it matches subplans with mqo.MatchSubplans
// and keeps the pairs whose factors the revision left unchanged, so a warm
// search re-simulates only subplans the revision actually changed.
func (m *Model) AdoptMemo(old *Model, match map[int]int) int {
	adopted := 0
	// remap[i] translates the entry ids of subplan i's old counterpart into
	// i's own; nil where i adopted nothing.
	remap := make([][]int32, len(m.Graph.Subplans))
	var kids []int32
	for _, s := range m.Graph.Subplans { // children-first: the children's remaps are ready
		oldID, ok := match[s.ID]
		if !ok {
			continue
		}
		src, dst := &old.memo[oldID], &m.memo[s.ID]
		slots, ok := childSlots(s, old.Graph.Subplans[oldID], match, remap)
		if !ok || src.queries != dst.queries || src.width != dst.width {
			continue
		}
		ids := make([]int32, src.n)
		for e := range src.n {
			key := src.keyOf(e)
			kids = kids[:0]
			for i, c := range s.Children {
				kids = append(kids, remap[c.ID][key[1+slots[i]]])
			}
			ids[e] = dst.adopt(src, e, kids)
		}
		remap[s.ID] = ids
		adopted += len(ids)
	}
	m.epoch++
	return adopted
}

// childSlots returns, per child of s, the position among old's children of
// the subplan it is matched to; ok is false unless every child is matched to
// a child of old and has adopted that child's entries.
func childSlots(s, old *mqo.Subplan, match map[int]int, remap [][]int32) (slots []int, ok bool) {
	if len(s.Children) != len(old.Children) {
		return nil, false
	}
	slots = make([]int, len(s.Children))
	for i, c := range s.Children {
		oc, matched := match[c.ID]
		slots[i] = slices.IndexFunc(old.Children, func(o *mqo.Subplan) bool { return o.ID == oc })
		if !matched || slots[i] < 0 || remap[c.ID] == nil {
			return nil, false
		}
	}
	return slots, true
}
