package cost

import (
	"reflect"
	"testing"
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
	for name, typ := range map[string]reflect.Type{
		"memo key":                index.Key(),
		"memo index value":        index.Elem(),
		"spill key":               reflect.TypeOf(tab.spill).Key(),
		"memo entry":              reflect.TypeOf(tab.entries).Elem(),
		"key slab element":        reflect.TypeOf(tab.keys).Elem(),
		"float slab element":      reflect.TypeOf(tab.floats).Elem(),
		"evaluation entry id":     reflect.TypeOf(ev.ids).Elem(),
		"evaluation float vector": reflect.TypeOf(ev.vec).Elem(),
		"evaluation prefix sum":   reflect.TypeOf(ev.prefix).Elem(),
		"evaluation dirty set":    reflect.TypeOf(ev.dirty).Elem(),
	} {
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
