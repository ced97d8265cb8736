package main

import (
	"math"
	"sort"

	"ishare/internal/value"
)

// floatTol is the relative tolerance for computed floats. The engine
// accumulates SUM/AVG in delta-arrival order and a reference in table order,
// so the lowest bits legitimately differ (internal/tpch/oracle_test.go rounds
// to nine digits for the same reason); a tolerance has no rounding boundary
// for a value to straddle, so it cannot fail spuriously the way comparing
// oracle.Canon keys would.
const floatTol = 1e-9

func rowLess(a, b value.Row) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := value.Compare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// sameRows reports whether two unordered row multisets are equal: strings,
// integers and NULLs exactly, numbers of mixed or float kind within floatTol.
// It sorts copies of the slices, not the inputs.
func sameRows(got, want []value.Row) bool {
	if len(got) != len(want) {
		return false
	}
	got = append([]value.Row(nil), got...)
	want = append([]value.Row(nil), want...)
	sort.Slice(got, func(i, j int) bool { return rowLess(got[i], got[j]) })
	sort.Slice(want, func(i, j int) bool { return rowLess(want[i], want[j]) })
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameValue(a, b value.Value) bool {
	if a.K == value.KindFloat || b.K == value.KindFloat {
		if a.IsNull() || b.IsNull() || a.K == value.KindString || b.K == value.KindString {
			return false
		}
		x, y := a.AsFloat(), b.AsFloat()
		return math.Abs(x-y) <= floatTol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return value.Equal(a, b)
}
