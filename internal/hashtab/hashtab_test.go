package hashtab

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives the open-addressing table and a map reference
// through identical mixed insert/overwrite/delete/probe streams. Hashes are
// drawn from a small clustered domain so probe chains overlap and deletions
// exercise the backward shift inside dense clusters.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table
		ref := make(map[uint64]int32)
		// Clustered hash domain: a few base values plus small offsets, so
		// many keys land in adjacent slots at every table size.
		randHash := func() uint64 {
			base := uint64(rng.Intn(4)) << 32
			return base + uint64(rng.Intn(64))
		}
		for step := 0; step < 5000; step++ {
			h := randHash()
			switch rng.Intn(4) {
			case 0, 1: // insert / overwrite
				v := int32(rng.Intn(1000))
				tab.Put(h, v)
				ref[h] = v
			case 2: // delete
				got := tab.Delete(h)
				_, want := ref[h]
				if got != want {
					t.Fatalf("seed %d step %d: Delete(%#x) = %v, want %v", seed, step, h, got, want)
				}
				delete(ref, h)
			case 3: // probe
				got, ok := tab.Get(h)
				want, wantOK := ref[h]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d step %d: Get(%#x) = (%d,%v), want (%d,%v)", seed, step, h, got, ok, want, wantOK)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tab.Len(), len(ref))
			}
		}
		// Every surviving key must still be reachable (no probe chain was
		// broken by a backward shift).
		for h, want := range ref {
			got, ok := tab.Get(h)
			if !ok || got != want {
				t.Fatalf("seed %d: final Get(%#x) = (%d,%v), want (%d,true)", seed, h, got, ok, want)
			}
		}
	}
}

// TestTableAdversarialCluster fills one dense cluster and deletes from its
// middle, the worst case for backward-shift deletion.
func TestTableAdversarialCluster(t *testing.T) {
	var tab Table
	const n = 64
	for i := uint64(0); i < n; i++ {
		tab.Put(i, int32(i))
	}
	// Delete every third entry, then every remaining even one.
	for i := uint64(0); i < n; i += 3 {
		if !tab.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		got, ok := tab.Get(i)
		if i%3 == 0 {
			if ok {
				t.Fatalf("Get(%d) found deleted entry", i)
			}
			continue
		}
		if !ok || got != int32(i) {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", i, got, ok, i)
		}
	}
}

func TestArena(t *testing.T) {
	type entry struct {
		k, v int
	}
	var a Arena[entry]
	refs := make([]int32, 0, 1000)
	for i := 0; i < 1000; i++ {
		r := a.Alloc()
		e := a.At(r)
		if e.k != 0 || e.v != 0 {
			t.Fatalf("Alloc returned non-zero entry %+v", *e)
		}
		e.k, e.v = i, i*2
		refs = append(refs, r)
	}
	if a.Len() != 1000 {
		t.Fatalf("Len = %d", a.Len())
	}
	// Pointers must stay stable across growth.
	for i, r := range refs {
		if e := a.At(r); e.k != i || e.v != i*2 {
			t.Fatalf("entry %d corrupted: %+v", i, *e)
		}
	}
	// Free half, reallocate, and confirm recycling zeroes slots.
	for i := 0; i < 500; i++ {
		a.Free(refs[i])
	}
	if a.Len() != 500 {
		t.Fatalf("Len after frees = %d", a.Len())
	}
	for i := 0; i < 500; i++ {
		r := a.Alloc()
		if e := a.At(r); e.k != 0 || e.v != 0 {
			t.Fatalf("recycled entry not zeroed: %+v", *e)
		}
	}
	if a.Len() != 1000 {
		t.Fatalf("Len after realloc = %d", a.Len())
	}
}

// TestTableGetOnEmpty covers the unallocated fast path.
func TestTableGetOnEmpty(t *testing.T) {
	var tab Table
	if _, ok := tab.Get(42); ok {
		t.Fatal("Get on empty table found something")
	}
	if tab.Delete(42) {
		t.Fatal("Delete on empty table reported success")
	}
}

// TestTableReset: a reset table holds nothing, and refilling it to its
// earlier size reuses its slots without allocating.
func TestTableReset(t *testing.T) {
	var tab Table
	tab.Reset() // on an unallocated table
	fill := func(base uint64) {
		for i := uint64(0); i < 100; i++ {
			tab.Put((base+i)*0x9E3779B97F4A7C15, int32(i))
		}
	}
	fill(0)
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if _, ok := tab.Get(0x9E3779B97F4A7C15); ok {
		t.Fatal("Get after Reset found a removed hash")
	}
	if n := testing.AllocsPerRun(10, func() { tab.Reset(); fill(1000) }); n != 0 {
		t.Errorf("refilling a reset table: %v allocs, want 0", n)
	}
	for i := uint64(0); i < 100; i++ {
		if ref, ok := tab.Get((1000 + i) * 0x9E3779B97F4A7C15); !ok || ref != int32(i) {
			t.Fatalf("hash %d after refill: %d, %t", i, ref, ok)
		}
	}
}
