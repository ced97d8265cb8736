package cost

// AdoptMemo warm-starts this model's memo tables from a model built for a
// previous revision of the same plan, using match (new subplan ID → old
// subplan ID, from mqo.MatchSubplans). A memo key is the subplan's private
// pace configuration — its own pace followed by all descendant paces in
// ascending-descendant-ID order — so adopting an entry means permuting its
// components from the old descendant order into the new one. Only subplans
// whose entire descendant cone is matched adopt anything (MatchSubplans
// guarantees that for matched subplans, but the check is cheap and keeps
// this safe against weaker matchings). Both models must apply the same
// calibration: call SetCalibration (which clears the memo) before adopting.
// old must not be m. Evaluations of m made before the call are no longer
// evaluated relative to (see EvaluateDelta). Returns the number of entries
// adopted.
//
// This is what makes online admission's pace search warm: the old greedy
// search memoized every private configuration it simulated, so the new
// search re-simulates only subplans the admission actually changed.
func (m *Model) AdoptMemo(old *Model, match map[int]int) int {
	adopted := 0
	for _, s := range m.Graph.Subplans {
		oldID, ok := match[s.ID]
		if !ok {
			continue
		}
		descNew := m.descendants[s.ID]
		descOld := old.descendants[oldID]
		if len(descNew) != len(descOld) {
			continue
		}
		// perm[i] is the component of the old key that becomes component i
		// of the new key (component 0 is the subplan's own pace).
		pos := make(map[int]int, len(descOld))
		for i, d := range descOld {
			pos[d] = i + 1
		}
		perm := make([]int, len(descNew)+1)
		usable := true
		for i, d := range descNew {
			od, matched := match[d]
			if !matched {
				usable = false
				break
			}
			p, there := pos[od]
			if !there {
				usable = false
				break
			}
			perm[i+1] = p
		}
		if !usable {
			continue
		}
		var parts []int
		var key []byte
		dst := m.memo[s.ID]
		for k, v := range old.memo[oldID] {
			parts = splitKey(parts[:0], k)
			if len(parts) != len(perm) {
				continue
			}
			key = key[:0]
			for _, p := range perm {
				key = appendKeyPace(key, parts[p])
			}
			dst[string(key)] = v
			adopted++
		}
	}
	m.epoch++
	return adopted
}
