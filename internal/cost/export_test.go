package cost

import "unsafe"

// Outputs materializes an Evaluation's per-subplan output profiles for the
// tests that compare them bit for bit. The Evaluation must be its model's
// latest or one the model could still evaluate relative to.
func (e *Evaluation) Outputs() []Profile { return e.model.outputs(e) }

// MemoEntries counts the entries in the model's memo tables.
func (m *Model) MemoEntries() int {
	n := 0
	for i := range m.memo {
		n += int(m.memo[i].n)
	}
	return n
}

// MemoBytes sums the slab bytes the model's memo entries fill: each entry's
// memoEntry, key and floats.
func (m *Model) MemoBytes() uint64 {
	var n uint64
	for i := range m.memo {
		t := &m.memo[i]
		n += uint64(t.n) * (uint64(unsafe.Sizeof(memoEntry{})) + 4*uint64(t.arity) + 8*uint64(t.width))
	}
	return n
}
