package cost

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ishare/internal/hashtab"
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

// TestMemoIsPointerFree guards the memo's layout: the entry, the element of
// every slab, class row and index table a memo table keeps, and of every
// vector an Evaluation keeps per subplan, are plain numbers, so however large
// the memo grows the collector never scans it and storing into it needs no
// write barrier.
func TestMemoIsPointerFree(t *testing.T) {
	var tab memoTable
	var ev Evaluation
	types := map[string]reflect.Type{
		"class row element":       reflect.TypeOf(tab.outs).Elem().Elem(),
		"evaluation entry id":     reflect.TypeOf(ev.ids).Elem(),
		"evaluation float vector": reflect.TypeOf(ev.vec).Elem(),
		"evaluation prefix sum":   reflect.TypeOf(ev.prefix).Elem(),
		"evaluation dirty set":    reflect.TypeOf(ev.dirty).Elem(),
	}
	// Every field of a slab or an index table is a plain number or a slice
	// of them.
	for name, typ := range map[string]reflect.Type{"slab": reflect.TypeOf(tab.slabs).Elem(), "index": reflect.TypeOf(tab.configs)} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Slice {
				types[name+" "+f.Name+" element"] = f.Type.Elem()
			} else {
				types[name+" "+f.Name] = f.Type
			}
		}
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
// 200 misses, each a new entry with a new output class, by twice the slab
// bytes those fill plus its two index tables, each counted as what a
// hashtab.Table of 200 hashes allocates: a slab is allocated once at its
// full size and never copied, so the only surplus is the unfilled tail of
// the last slab. Growing the slabs by append instead copies every entry
// about once more and fails the bound.
func TestMemoSlabsAllocateWhatTheyFill(t *testing.T) {
	const misses, nq, cols, children = 200, 3, 4, 2
	var index hashtab.Table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range misses {
		index.Put(uint64(i)*hashMul, int32(i))
	}
	runtime.ReadMemStats(&after)
	indexBytes := after.TotalAlloc - before.TotalAlloc

	tab := memoTable{nq: nq, width: outHead + nq + cols, arity: 1 + children}
	row, key := make([]float64, tab.width), make([]int32, tab.arity)
	runtime.ReadMemStats(&before)
	for i := range misses {
		row[outHead], key[0], key[1] = float64(i), int32(i), int32(i)
		e := memoEntry{pT: float64(i), out: tab.intern(row)}
		tab.index(hashKey(key), tab.add(key, e))
	}
	runtime.ReadMemStats(&after)
	filled := misses * (uint64(unsafe.Sizeof(memoEntry{})) + 4*uint64(tab.arity) + 8*uint64(tab.width))
	if got, bound := after.TotalAlloc-before.TotalAlloc, 2*filled+2*indexBytes; got > bound {
		t.Errorf("%d misses allocated %d B for %d B of entries and classes (bound %d B, %d B of it the index tables)",
			misses, got, filled, bound, 2*indexBytes)
	}
	// The entries read back as added, across every slab boundary, and are
	// found by their keys.
	for i := range int32(misses) {
		key[0], key[1] = i, i
		id, _, ok := tab.find(key)
		v := tab.view(i)
		if !ok || id != i || tab.entry(i).pT != float64(i) || v.PerQuery[0] != float64(i) || tab.keyOf(i)[0] != i || tab.keyOf(i)[1] != i {
			t.Fatalf("entry %d reads back %+v, key %v, found %d %t", i, *tab.entry(i), tab.keyOf(i), id, ok)
		}
	}
}

// TestInternComparesBits: output classes are told apart by their float bits,
// as the simulations consuming them would tell them apart, so +0 and -0, or
// two NaN payloads, are two classes, and a row interned again is found.
func TestInternComparesBits(t *testing.T) {
	tab := memoTable{nq: 1, width: outHead + 1, arity: 1}
	rows := [][]float64{
		{1, 1, 0, 0},
		{1, 1, 0, math.Copysign(0, -1)},
		{1, 1, 0, math.NaN()},
		{1, 1, 0, math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)},
	}
	for i, row := range rows {
		if c := tab.intern(row); c != int32(i) {
			t.Fatalf("row %d interned as class %d, want a new class %d", i, c, i)
		}
	}
	for i, row := range rows {
		if c := tab.intern(row); c != int32(i) {
			t.Errorf("row %d interned again as class %d, want %d", i, c, i)
		}
	}
}
