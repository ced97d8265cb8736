package buffer

import (
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/value"
)

var allKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindDate}

// randomValue draws a value of kind k, NULL one time in five.
func randomValue(r *rand.Rand, k value.Kind) value.Value {
	if r.Intn(5) == 0 {
		return value.Null
	}
	switch k {
	case value.KindInt:
		return value.Int(r.Int63n(100) - 50)
	case value.KindFloat:
		return value.Float(float64(r.Intn(400)-200) / 4)
	case value.KindString:
		return value.Str([]string{"", "a", "bc", "déf"}[r.Intn(4)])
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	default:
		return value.Date(r.Int63n(20000))
	}
}

// randomColumns returns n random rows of kinds as columns and as rows.
func randomColumns(r *rand.Rand, kinds []value.Kind, n int) (*Columns, []value.Row) {
	c := NewColumns(kinds, n)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = make(value.Row, len(kinds))
		for j, k := range kinds {
			rows[i][j] = randomValue(r, k)
			c.Set(i, j, rows[i][j])
		}
	}
	return c, rows
}

// TestColumnsRoundTrip: every kind, NULLs in every column, reads back
// exactly the values Set stored — through Rows, Gather of selected rows
// and columns, and Column — and a segment without a NULL keeps no bitmap.
func TestColumnsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		c, want := randomColumns(r, allKinds, n)
		if c.Len() != n || c.Width() != len(allKinds) {
			t.Fatalf("n=%d: Len %d, Width %d", n, c.Len(), c.Width())
		}
		got := c.Rows()
		if n > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Rows = %v, want %v", n, got, want)
		}
		if n < 3 {
			continue
		}
		// Rows 1+2, 1+0 and 1+(n-2), columns 4 and 1, over a slab of stale
		// strings: the other columns keep them.
		idx := []int32{2, 0, int32(n - 2)}
		dst := make([]value.Value, len(idx)*len(allKinds))
		for k := range dst {
			dst[k] = value.Str("stale")
		}
		c.Gather(dst, 1, idx, len(idx), []int{4, 1})
		for k, i := range idx {
			for j := range allKinds {
				w := value.Str("stale")
				if j == 4 || j == 1 {
					w = want[1+int(i)][j]
				}
				if got := dst[k*len(allKinds)+j]; got != w {
					t.Fatalf("n=%d: Gather of row %d column %d = %#v, want %#v", n, 1+i, j, got, w)
				}
			}
		}
		col := make([]value.Value, n-1)
		c.Column(col, 2, 1)
		for i, v := range col {
			if v != want[1+i][2] {
				t.Fatalf("n=%d: Column 2 row %d = %#v, want %#v", n, 1+i, v, want[1+i][2])
			}
		}
	}
	c := NewColumns(allKinds[:2], 100)
	for i := range 100 {
		c.Set(i, 0, value.Int(int64(i)))
		c.Set(i, 1, value.Float(float64(i)))
	}
	if c.nulls != nil {
		t.Error("a segment without a NULL allocated a bitmap")
	}
}

// TestStageColumns: a column segment's rows are the open window's until the
// next StageColumns rewrites the log's slab; from then on Span serves the
// sealed segment as columns, and readers of other segments are unaffected.
func TestStageColumns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	l := NewLog("table")
	c0, rows0 := randomColumns(r, allKinds, 5)
	l.StageColumns(c0)
	l.Reveal(5)
	sp := l.Span(2)
	if sp.Cols != c0 || sp.Off != 2 || sp.N != 3 || len(sp.Rows) != 3 || cap(sp.Rows) != 3 {
		t.Fatalf("open window span = %+v", sp)
	}
	for i, tu := range sp.Rows {
		if !reflect.DeepEqual(tu.Row, rows0[2+i]) || tu.Sign != delta.Insert || tu.Bits != insertBits || cap(tu.Row) != len(tu.Row) {
			t.Fatalf("open window row %d = %v, want %v", 2+i, tu, rows0[2+i])
		}
	}
	slab := &l.slab[0]
	l.Stage([]delta.Tuple{tup(7)}) // a row segment in between keeps nothing open
	l.Reveal(1)
	c1, rows1 := randomColumns(r, allKinds, 4)
	l.StageColumns(c1)
	l.Reveal(2)
	if l.Len() != 8 {
		t.Fatalf("Len = %d, want 8", l.Len())
	}
	if sp := l.Span(1); sp.Rows != nil || sp.Cols != c0 || sp.Off != 1 || sp.N != 4 {
		t.Fatalf("sealed column span = %+v", sp)
	}
	if sp := l.Span(5); len(sp.Rows) != 1 || sp.Cols != nil || sp.Rows[0].Row[0] != value.Int(7) {
		t.Fatalf("row span = %+v", sp)
	}
	sp = l.Span(6)
	if sp.Cols != c1 || sp.N != 2 || len(sp.Rows) != 2 || !reflect.DeepEqual(sp.Rows[0].Row, rows1[0]) {
		t.Fatalf("second open window span = %+v", sp)
	}
	if &l.Span(6).Rows[0].Row[0] != slab {
		t.Error("the second column window did not reuse the first one's slab")
	}
	l.StageColumns(NewColumns(allKinds, 0)) // staging nothing changes nothing
	if sp := l.Span(6); sp.Rows == nil || l.Len() != 8 {
		t.Fatalf("an empty StageColumns sealed the open window: %+v", sp)
	}
	defer func() {
		if recover() == nil {
			t.Error("a reader over a sealed column segment did not panic")
		}
	}()
	l.NewReader().ReadNew()
}
