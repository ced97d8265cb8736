package delta

import (
	"testing"

	"ishare/internal/mqo"
	"ishare/internal/value"
)

func row(v int64) value.Row { return value.Row{value.Int(v)} }

func TestSignString(t *testing.T) {
	if Insert.String() != "+" || Delete.String() != "-" {
		t.Error("sign rendering wrong")
	}
}

func TestApplyNetsOut(t *testing.T) {
	ts := []Tuple{
		{Row: row(1), Bits: mqo.Bit(0), Sign: Insert},
		{Row: row(1), Bits: mqo.Bit(0), Sign: Insert},
		{Row: row(1), Bits: mqo.Bit(0), Sign: Delete},
		{Row: row(2), Bits: mqo.Bit(0), Sign: Insert},
		{Row: row(2), Bits: mqo.Bit(0), Sign: Delete},
	}
	counts := Apply(ts, 0)
	if len(counts) != 1 {
		t.Fatalf("counts = %v", counts)
	}
	for _, n := range counts {
		if n != 1 {
			t.Errorf("count = %d, want 1", n)
		}
	}
}

func TestApplyFiltersByQuery(t *testing.T) {
	ts := []Tuple{
		{Row: row(1), Bits: mqo.Bit(0), Sign: Insert},
		{Row: row(2), Bits: mqo.Bit(1), Sign: Insert},
		{Row: row(3), Bits: mqo.Bit(0).Union(mqo.Bit(1)), Sign: Insert},
	}
	if got := len(Apply(ts, 0)); got != 2 {
		t.Errorf("q0 rows = %d", got)
	}
	if got := len(Apply(ts, 1)); got != 2 {
		t.Errorf("q1 rows = %d", got)
	}
	if got := len(Apply(ts, -1)); got != 3 {
		t.Errorf("all rows = %d", got)
	}
}

func TestMaterializeMultiplicity(t *testing.T) {
	ts := []Tuple{
		{Row: row(7), Bits: mqo.Bit(0), Sign: Insert},
		{Row: row(7), Bits: mqo.Bit(0), Sign: Insert},
	}
	rows := Materialize(Seq{ts}, 0)
	if len(rows) != 2 {
		t.Errorf("multiplicity lost: %v", rows)
	}
}

func TestTupleString(t *testing.T) {
	tup := Tuple{Row: row(5), Bits: mqo.Bit(2), Sign: Delete}
	if got := tup.String(); got != "-{2}5" {
		t.Errorf("String = %q", got)
	}
}

// TestChunksOverSegments: NewChunks walks a multi-segment stream in order,
// in windows of at most size tuples that alias their segment and never
// cross a segment boundary; a size < 1 yields each non-empty segment whole.
func TestChunksOverSegments(t *testing.T) {
	var seq Seq
	next := int64(0)
	for _, n := range []int{5, 0, 1, 8, 3, 16} {
		seg := make([]Tuple, n)
		for i := range seg {
			seg[i] = Tuple{Row: row(next), Bits: mqo.Bit(0), Sign: Insert}
			next++
		}
		seq = append(seq, seg)
	}
	// aliasesOneSegment reports whether the window's tuples are the very
	// elements of a single segment (tuple values are stream positions).
	aliasesOneSegment := func(win []Tuple) bool {
		first := int(win[0].Row[0].AsInt())
		for _, seg := range seq {
			if first < len(seg) {
				return first+len(win) <= len(seg) && &win[0] == &seg[first]
			}
			first -= len(seg)
		}
		return false
	}
	for _, size := range []int{-1, 0, 1, 2, 3, 4, 7, 1024} {
		it := NewChunks(seq, size)
		want, windows := 0, 0
		for win, ok := it.Next(); ok; win, ok = it.Next() {
			windows++
			if len(win) == 0 || (size >= 1 && len(win) > size) {
				t.Fatalf("size %d: window of %d tuples", size, len(win))
			}
			if !aliasesOneSegment(win) {
				t.Fatalf("size %d: window %v does not lie within one segment", size, win)
			}
			for _, tup := range win {
				if int(tup.Row[0].AsInt()) != want {
					t.Fatalf("size %d: got %d, want %d", size, tup.Row[0].AsInt(), want)
				}
				want++
			}
		}
		if want != seq.Len() {
			t.Errorf("size %d: covered %d of %d tuples", size, want, seq.Len())
		}
		if size < 1 && windows != 5 {
			t.Errorf("size %d: %d windows, want one per non-empty segment (5)", size, windows)
		}
	}
}
