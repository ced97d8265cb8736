package cost

import (
	"math"
	"unsafe"
)

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

// MemoBytes sums the slab bytes the model's memo fills: each entry's
// memoEntry and key, and each output class's row.
func (m *Model) MemoBytes() uint64 {
	var n uint64
	for i := range m.memo {
		t := &m.memo[i]
		n += uint64(t.n)*(uint64(unsafe.Sizeof(memoEntry{}))+4*uint64(t.arity)) + uint64(t.nOut)*8*uint64(t.width)
	}
	return n
}

// MemoClasses counts the output classes in the model's memo tables.
func (m *Model) MemoClasses() int {
	n := 0
	for i := range m.memo {
		n += int(m.memo[i].nOut)
	}
	return n
}

// OnSimulate makes f see every later simulation's subplan, pace and the
// float bits of its inputs, in input order: each input's gross, net and
// delete share, its query set, then its per-query counts and Distincts.
func (m *Model) OnSimulate(f func(sub, pace int, inputs []uint64)) {
	var buf []uint64
	m.onSimulate = func(sub, pace int, inputs []stream) {
		buf = buf[:0]
		for _, in := range inputs {
			buf = append(buf, math.Float64bits(in.Gross), math.Float64bits(in.Net),
				math.Float64bits(in.DeleteShare), uint64(in.Queries))
			for _, v := range in.PerQuery {
				buf = append(buf, math.Float64bits(v))
			}
			for _, v := range in.Distinct {
				buf = append(buf, math.Float64bits(v))
			}
		}
		f(sub, pace, buf)
	}
}
