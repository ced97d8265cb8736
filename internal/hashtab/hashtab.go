// Package hashtab provides the executor's state-layer building blocks: an
// open-addressing hash table over precomputed 64-bit hashes and a
// slab-backed arena with stable pointers. Operators hash a key once (with
// value.Hasher), keep the hash, and index their arena-allocated entries
// through the table — no per-probe re-hashing, no per-entry heap
// allocation, and no map runtime overhead on the hot path.
package hashtab

// Table maps distinct 64-bit hashes to int32 references using linear
// probing. Deletion is tombstone-free: Knuth's backward-shift algorithm
// (TAOCP 6.4, Algorithm R) restores every surviving entry to a reachable
// slot, so probe sequences never lengthen as entries churn — important for
// join build sides fed delete-heavy streams.
//
// The table stores one reference per distinct hash. Callers whose keys can
// collide on the full 64 bits (different group keys, different join keys)
// chain same-hash entries through their arena and disambiguate by comparing
// the actual keys.
type Table struct {
	hashes []uint64
	refs   []int32
	full   []bool
	mask   uint64
	n      int
}

// minCap is the initial slot count of a non-empty table.
const minCap = 16

// Len returns the number of stored hashes.
func (t *Table) Len() int { return t.n }

// Reset removes every hash, keeping the slots for reuse.
func (t *Table) Reset() {
	clear(t.full)
	t.n = 0
}

// Get returns the reference stored for hash h.
func (t *Table) Get(h uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	i := h & t.mask
	for t.full[i] {
		if t.hashes[i] == h {
			return t.refs[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// GetBatch looks up hashes[i] for every selected index in one pass, storing
// the found reference (or -1) at refs[i]. Entries of refs outside sel are
// left untouched. This is the probe side of vectorized join execution: a
// chunk's key hashes are resolved against the build side together, keeping
// the table's slot arrays hot instead of interleaving lookups with per-tuple
// work.
func (t *Table) GetBatch(hashes []uint64, sel []int32, refs []int32) {
	if t.n == 0 {
		for _, i := range sel {
			refs[i] = -1
		}
		return
	}
	for _, i := range sel {
		h := hashes[i]
		refs[i] = -1
		for j := h & t.mask; t.full[j]; j = (j + 1) & t.mask {
			if t.hashes[j] == h {
				refs[i] = t.refs[j]
				break
			}
		}
	}
}

// Put stores ref for hash h, replacing any existing reference.
func (t *Table) Put(h uint64, ref int32) {
	if len(t.hashes) == 0 || t.n >= len(t.hashes)*3/4 {
		t.grow()
	}
	i := h & t.mask
	for t.full[i] {
		if t.hashes[i] == h {
			t.refs[i] = ref
			return
		}
		i = (i + 1) & t.mask
	}
	t.hashes[i], t.refs[i], t.full[i] = h, ref, true
	t.n++
}

// Delete removes hash h, reporting whether it was present. Entries
// displaced past the vacated slot are shifted back so no tombstone is left
// behind.
func (t *Table) Delete(h uint64) bool {
	if t.n == 0 {
		return false
	}
	i := h & t.mask
	for t.full[i] {
		if t.hashes[i] == h {
			t.shiftBack(i)
			t.n--
			return true
		}
		i = (i + 1) & t.mask
	}
	return false
}

// shiftBack vacates slot j, moving later cluster members whose home slot
// precedes the hole back into it until the cluster's end.
func (t *Table) shiftBack(j uint64) {
	i := j
	for {
		i = (i + 1) & t.mask
		if !t.full[i] {
			t.full[j] = false
			return
		}
		home := t.hashes[i] & t.mask
		// Skip entries whose home lies cyclically in (j, i] — they are
		// already at or after their home and must not move before it.
		if (i-home)&t.mask < (i-j)&t.mask {
			continue
		}
		t.hashes[j], t.refs[j] = t.hashes[i], t.refs[i]
		j = i
	}
}

// grow doubles the slot count and reinserts all entries.
func (t *Table) grow() {
	oldHashes, oldRefs, oldFull := t.hashes, t.refs, t.full
	newCap := minCap
	if len(oldHashes) > 0 {
		newCap = len(oldHashes) * 2
	}
	t.hashes = make([]uint64, newCap)
	t.refs = make([]int32, newCap)
	t.full = make([]bool, newCap)
	t.mask = uint64(newCap - 1)
	t.n = 0
	for i, f := range oldFull {
		if f {
			t.Put(oldHashes[i], oldRefs[i])
		}
	}
}

// slabSize is the entry count of an arena slab: slabs are never
// reallocated, so pointers returned by At remain valid for the arena's
// lifetime. 255, not 256: the runtime prefixes a pointer-holding object
// over 512 B with an 8-byte header, and 256 entries of 8k bytes fill a
// size class exactly, so the header tipped every slab into the next class
// — 2 KB of a 64-byte-entry slab, an eighth of it, allocated and never
// used. Refs stay dense; dividing by a constant costs no measurable time
// against the cache miss At's caller is about to take.
const slabSize = 255

// Arena is a slab-backed allocator with an int32 reference space and a free
// list. Alloc returns zeroed entries; Free zeroes the entry (dropping any
// heap references it held) and recycles its slot. Pointers obtained via At
// stay valid across later Allocs — slabs grow by adding new slabs, never by
// moving old ones.
type Arena[T any] struct {
	slabs [][]T
	free  []int32
	next  int32
	n     int
}

// Len returns the number of live entries.
func (a *Arena[T]) Len() int { return a.n }

// Alloc returns a reference to a zeroed entry.
func (a *Arena[T]) Alloc() int32 {
	a.n++
	if k := len(a.free); k > 0 {
		ref := a.free[k-1]
		a.free = a.free[:k-1]
		return ref
	}
	ref := a.next
	a.next++
	if int(ref)/slabSize == len(a.slabs) {
		a.slabs = append(a.slabs, make([]T, slabSize))
	}
	return ref
}

// At returns the entry for ref. The pointer stays valid until the entry is
// freed.
func (a *Arena[T]) At(ref int32) *T {
	u := uint32(ref) // unsigned: division by the constant needs no sign fix-up
	return &a.slabs[u/slabSize][u%slabSize]
}

// Free zeroes the entry and returns its slot to the free list.
func (a *Arena[T]) Free(ref int32) {
	var zero T
	*a.At(ref) = zero
	a.free = append(a.free, ref)
	a.n--
}
