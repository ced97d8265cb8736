// Package vec provides the executor's vectorized batch infrastructure:
// chunks of ~1024 delta tuples processed operator-at-a-time, selection
// vectors that deactivate tuples without copying rows, column vectors
// holding expression results evaluated column-at-a-time, and a row arena
// that carves emitted rows out of slab allocations.
//
// The modeled-vs-actual split is the package's contract with the rest of
// the engine: chunking is a physical execution detail only. Operators
// compute their Work counters from logical tuple counts (selection
// cardinalities), never from chunk counts or vector lengths, so the modeled
// work — and with it every cost-model number, pace decision and golden
// trace — is bit-identical at any batch size.
package vec

import (
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// DefaultBatch is the default chunk capacity. 1024 tuples keeps a chunk's
// working set (rows, bits, selection, a few expression vectors) inside L2
// while amortizing per-chunk dispatch to noise.
const DefaultBatch = 1024

// SelVector is a selection vector: the indices of a chunk's active tuples,
// ascending. Filters deactivate tuples by dropping their index from the
// selection instead of copying the survivors' rows.
type SelVector []int32

// Identity resets s to select all of 0..n-1, reusing its backing array.
func (s SelVector) Identity(n int) SelVector {
	s = s[:0]
	for i := 0; i < n; i++ {
		s = append(s, int32(i))
	}
	return s
}

// Compact keeps only the selected indices for which keep returns true,
// in place, preserving order.
func (s SelVector) Compact(keep func(i int32) bool) SelVector {
	out := s[:0]
	for _, i := range s {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}

// Chunk is one batch of delta tuples flowing through an operator: the tuple
// window (rows by reference — chunking never copies or re-materializes input
// rows), a working bitset per tuple, and the active selection. Proj, when
// non-nil, switches expression evaluation to a column view: column index c
// reads Proj[c] instead of the tuple rows (used to run marker predicates
// over freshly projected columns before any row is materialized).
type Chunk struct {
	Tup  []delta.Tuple
	Bits []mqo.Bitset
	Sel  SelVector
	Proj [][]value.Value
}

// Reset points the chunk at a new tuple window, growing the bits scratch
// and resetting the selection to all tuples. Bits contents are undefined
// until the caller initializes them.
func (c *Chunk) Reset(tup []delta.Tuple) {
	c.Tup = tup
	c.Proj = nil
	if cap(c.Bits) < len(tup) {
		c.Bits = make([]mqo.Bitset, len(tup))
	}
	c.Bits = c.Bits[:len(tup)]
	c.Sel = c.Sel.Identity(len(tup))
}

// InitBits seeds the working bits: each tuple's bits restricted to base.
func (c *Chunk) InitBits(base mqo.Bitset) {
	for i, t := range c.Tup {
		c.Bits[i] = t.Bits.Intersect(base)
	}
}

// NarrowNonEmpty drops tuples whose working bits are empty from the
// selection.
func (c *Chunk) NarrowNonEmpty() {
	out := c.Sel[:0]
	for _, i := range c.Sel {
		if !c.Bits[i].Empty() {
			out = append(out, i)
		}
	}
	c.Sel = out
}

// colView returns the materialized column vector for idx when the chunk is
// in projected-column view, or nil when expressions should read the tuple
// rows.
func (c *Chunk) colView(idx int) []value.Value {
	if c.Proj != nil {
		return c.Proj[idx]
	}
	return nil
}

// At returns column idx of tuple i under the chunk's current view.
func (c *Chunk) At(idx int, i int32) value.Value {
	if c.Proj != nil {
		return c.Proj[idx][i]
	}
	return c.Tup[i].Row[idx]
}

// SlabArena carves fixed-capacity slices out of slab allocations: one
// allocation per slab of output instead of one per slice. Carved slices are
// capacity-clamped and never recarved, so retaining them (buffers, join
// build sides, group state) is safe; the arena itself only references the
// current slab, so once every slice carved from an older slab is dead the
// slab is collected — churn does not accumulate. Slabs grow geometrically
// from minSlabElems to maxSlabElems, so an owner that carves little never
// pays for a large slab (every operator owns its arenas, and most emit a
// handful of rows per execution) while heavy carvers converge to one
// allocation per slab; the cap also bounds what one retained slice can pin.
type SlabArena[T any] struct {
	buf  []T
	slab int
}

// Slab growth bounds, in elements. The minimum keeps near-idle owners
// cheap; the maximum bounds both what one retained slice can pin and the
// zeroing cost of a fresh slab.
const (
	minSlabElems = 128
	maxSlabElems = 4096
)

// New carves an n-element slice with cap n. Elements are zero values
// (slabs are fresh allocations and carved regions are never reused).
func (a *SlabArena[T]) New(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		if a.slab == 0 {
			a.slab = minSlabElems
		} else if a.slab < maxSlabElems {
			a.slab *= 2
		}
		size := a.slab
		if n > size {
			size = n
		}
		a.buf = make([]T, 0, size)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// RowArena is a SlabArena over values, carving emitted rows.
type RowArena struct {
	a SlabArena[value.Value]
}

// NewRow carves an n-value row. The row's elements are zero Values; callers
// fill them before emitting.
func (a *RowArena) NewRow(n int) value.Row {
	return value.Row(a.a.New(n))
}
