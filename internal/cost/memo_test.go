package cost

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// pointerFree reports whether values of t hold nothing the garbage collector
// has to scan: no pointer, slice, map, string, interface, channel or func,
// directly or in an array element or struct field.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestMemoIsPointerFree guards the memo's layout: the key, the entry and the
// element of every slab a memo table or an Evaluation keeps per entry or per
// subplan are plain numbers, so however large the memo grows the collector
// never scans it and storing into it needs no write barrier.
func TestMemoIsPointerFree(t *testing.T) {
	var tab memoTable
	var ev Evaluation
	index := reflect.TypeOf(tab.index)
	types := map[string]reflect.Type{
		"memo key":                index.Key(),
		"memo index value":        index.Elem(),
		"spill key":               reflect.TypeOf(tab.spill).Key(),
		"evaluation entry id":     reflect.TypeOf(ev.ids).Elem(),
		"evaluation float vector": reflect.TypeOf(ev.vec).Elem(),
		"evaluation prefix sum":   reflect.TypeOf(ev.prefix).Elem(),
		"evaluation dirty set":    reflect.TypeOf(ev.dirty).Elem(),
	}
	// Every field of a slab is a slice of plain numbers.
	slab := reflect.TypeOf(memoSlab{})
	for i := range slab.NumField() {
		f := slab.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("slab field %s is a %v, not a slice", f.Name, f.Type)
		}
		types["slab "+f.Name+" element"] = f.Type.Elem()
	}
	for name, typ := range types {
		if !pointerFree(typ) {
			t.Errorf("%s type %v holds pointers", name, typ)
		}
	}
	// The guard itself must see what it guards against.
	for _, typ := range []reflect.Type{reflect.TypeOf(Profile{}), reflect.TypeOf(""), reflect.TypeOf(tab)} {
		if pointerFree(typ) {
			t.Errorf("pointerFree(%v) = true", typ)
		}
	}
}

// TestMemoSlabsAllocateWhatTheyFill bounds what a memo table allocates for
// the entries of 200 misses by twice the slab bytes those entries fill: a
// slab is allocated once at its full size and never copied, so the only
// surplus is the unfilled tail of the last slab. Growing the slabs by append
// instead copies every entry about once more and fails the bound.
func TestMemoSlabsAllocateWhatTheyFill(t *testing.T) {
	const misses, nq, cols, children = 200, 3, 4, 2
	tab := memoTable{nq: nq, width: nq + cols, arity: 1 + children}
	perQuery, distinct, kids := make([]float64, nq), make([]float64, cols), make([]int32, children)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range misses {
		perQuery[0], kids[0] = float64(i), int32(i)
		tab.add(i, kids, memoEntry{pT: float64(i)}, perQuery, distinct)
	}
	runtime.ReadMemStats(&after)
	filled := misses * (uint64(unsafe.Sizeof(memoEntry{})) + 4*uint64(tab.arity) + 8*uint64(tab.width))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*filled {
		t.Errorf("%d misses allocated %d B for %d B of entries (bound %d B)", misses, got, filled, 2*filled)
	}
	// The entries read back as added, across every slab boundary.
	for i := range int32(misses) {
		v := tab.view(i)
		if tab.entry(i).pT != float64(i) || v.PerQuery[0] != float64(i) || tab.keyOf(i)[0] != i || tab.keyOf(i)[1] != i {
			t.Fatalf("entry %d reads back %+v, key %v", i, *tab.entry(i), tab.keyOf(i))
		}
	}
}
