package buffer

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

func tup(v int64) delta.Tuple {
	return delta.Tuple{Row: value.Row{value.Int(v)}, Bits: mqo.Bit(0), Sign: delta.Insert}
}

// vals flattens a segmented read into its tuples' values, in order.
func vals(seq delta.Seq) []int64 {
	var out []int64
	for _, seg := range seq {
		for _, t := range seg {
			out = append(out, t.Row[0].AsInt())
		}
	}
	return out
}

func TestAppendAndRead(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2), tup(3))
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := vals(l.NewReaderAt(1).ReadNew()); !reflect.DeepEqual(got, []int64{2, 3}) {
		t.Errorf("read from 1 = %v", got)
	}
	if got := l.NewReader().ReadNew().Len(); got != 3 {
		t.Errorf("read all = %d tuples", got)
	}
}

func TestViewIsStable(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1))
	seq := l.NewReader().ReadNew()
	// The view is capacity-clamped: appending to it can never write into the
	// log, and the log's own appends never move the segment under it.
	if len(seq) != 1 || cap(seq[0]) != 1 {
		t.Fatalf("read %d views, cap %d; want one view clamped to 1", len(seq), cap(seq[0]))
	}
	view := seq[0]
	for i := 2; i <= 3000; i++ {
		l.Append(tup(int64(i)))
	}
	if view[0].Row[0].AsInt() != 1 || view[0].Sign != delta.Insert {
		t.Error("view changed under appends")
	}
}

func TestIndependentReaders(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2))
	r1, r2 := l.NewReader(), l.NewReader()
	if got := r1.ReadNew().Len(); got != 2 {
		t.Fatalf("r1 first read = %d", got)
	}
	l.Append(tup(3))
	if got := vals(r1.ReadNew()); !reflect.DeepEqual(got, []int64{3}) {
		t.Errorf("r1 second read = %v", got)
	}
	// r2 is unaffected by r1's progress.
	if got := r2.ReadNew().Len(); got != 3 {
		t.Errorf("r2 read = %d tuples", got)
	}
	if r1.ReadNew() != nil {
		t.Error("read past end must return nil")
	}
	if r1.Offset() != 3 || r1.Pending() != 0 {
		t.Errorf("offset/pending = %d/%d", r1.Offset(), r1.Pending())
	}
}

func TestReaderAt(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2))
	r := l.NewReaderAt(2)
	if r.ReadNew() != nil || r.Offset() != 2 {
		t.Fatalf("reader at the end read something (offset %d)", r.Offset())
	}
	l.Append(tup(3))
	if got := vals(r.ReadNew()); !reflect.DeepEqual(got, []int64{3}) {
		t.Errorf("read after append = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a position past the end")
		}
	}()
	l.NewReaderAt(4)
}

// TestPendingHonoursLimit: during graft replay a reader is capped at a
// window mark below the log's end; Pending must report what ReadNew will
// return, not what the log holds.
func TestPendingHonoursLimit(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2), tup(3), tup(4))
	r := l.NewReaderAt(1)
	r.SetLimit(3)
	if p := r.Pending(); p != 2 {
		t.Errorf("Pending under limit 3 at offset 1 = %d, want 2", p)
	}
	if got := vals(r.ReadNew()); !reflect.DeepEqual(got, []int64{2, 3}) {
		t.Errorf("ReadNew under limit = %v", got)
	}
	if p := r.Pending(); p != 0 {
		t.Errorf("Pending at the limit = %d, want 0", p)
	}
	r.SetLimit(2) // below the cursor: nothing readable
	if p := r.Pending(); p != 0 || r.ReadNew() != nil {
		t.Errorf("Pending under a limit behind the cursor = %d, want 0 and no read", p)
	}
	r.ClearLimit()
	if p := r.Pending(); p != 1 {
		t.Errorf("Pending without limit = %d, want 1", p)
	}
}

// TestSegmentsProperty drives logs with random append sizes and readers
// created at random offsets under random limits, and checks the segment
// store: every reader's concatenated reads equal the appended stream from
// its start, a view taken before later appends still reads the same
// tuples, no segment exceeds the cap, and the segments' total capacity is
// at most the length plus one segment.
func TestSegmentsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 7, 511, 1023, 1024, 1025, 2500}
	type reader struct {
		r     *Reader
		start int
		got   []int64
	}
	type view struct {
		seg  []delta.Tuple
		vals []int64
	}
	for trial := 0; trial < 200; trial++ {
		l := NewLog("prop")
		n := 0
		var readers []*reader
		var views []view
		read := func(rd *reader) {
			pending := rd.r.Pending()
			seq := rd.r.ReadNew()
			if seq.Len() != pending {
				t.Fatalf("trial %d: ReadNew returned %d tuples, Pending promised %d", trial, seq.Len(), pending)
			}
			for _, seg := range seq {
				if len(seg) == 0 || cap(seg) != len(seg) {
					t.Fatalf("trial %d: view of len %d has cap %d", trial, len(seg), cap(seg))
				}
				if rng.Intn(4) == 0 {
					views = append(views, view{seg: seg, vals: vals(delta.Seq{seg})})
				}
			}
			rd.got = append(rd.got, vals(seq)...)
		}
		for step := 0; step < 30; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				k := sizes[rng.Intn(len(sizes))]
				if rng.Intn(2) == 0 {
					k = rng.Intn(700)
				}
				ts := make([]delta.Tuple, k)
				for i := range ts {
					ts[i] = tup(int64(n + i))
				}
				l.Append(ts...)
				n += k
			case 2:
				if rng.Intn(2) == 0 {
					readers = append(readers, &reader{r: l.NewReader()})
				} else {
					off := rng.Intn(n + 1)
					readers = append(readers, &reader{r: l.NewReaderAt(off), start: off})
				}
			case 3:
				if len(readers) == 0 {
					continue
				}
				rd := readers[rng.Intn(len(readers))]
				if rng.Intn(2) == 0 {
					rd.r.SetLimit(rng.Intn(n + 2))
				} else {
					rd.r.ClearLimit()
				}
				read(rd)
			}
		}
		for _, rd := range readers {
			rd.r.ClearLimit()
			read(rd)
			if len(rd.got) != n-rd.start {
				t.Fatalf("trial %d: reader from %d read %d tuples of %d", trial, rd.start, len(rd.got), n-rd.start)
			}
			for i, v := range rd.got {
				if v != int64(rd.start+i) {
					t.Fatalf("trial %d: reader from %d read %d at position %d", trial, rd.start, v, rd.start+i)
				}
			}
		}
		for _, v := range views {
			if got := vals(delta.Seq{v.seg}); !reflect.DeepEqual(got, v.vals) {
				t.Fatalf("trial %d: a view changed under later appends: %v, was %v", trial, got, v.vals)
			}
		}
		if l.Len() != n {
			t.Fatalf("trial %d: Len = %d, appended %d", trial, l.Len(), n)
		}
		total := 0
		for i, sg := range l.segs {
			seg := sg.rows
			if cap(seg) > maxSegment {
				t.Fatalf("trial %d: segment %d has cap %d > %d", trial, i, cap(seg), maxSegment)
			}
			if i < len(l.segs)-1 && len(seg) != cap(seg) {
				t.Fatalf("trial %d: non-tail segment %d holds %d of %d", trial, i, len(seg), cap(seg))
			}
			total += cap(seg)
		}
		if last := len(l.segs) - 1; last >= 0 && total > n+cap(l.segs[last].rows) {
			t.Fatalf("trial %d: segments hold %d capacity for %d tuples (tail cap %d)", trial, total, n, cap(l.segs[last].rows))
		}
	}
}

func TestConcurrentAppendRead(t *testing.T) {
	l := NewLog("t")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Append(tup(int64(i)))
			}
		}()
	}
	r := l.NewReader()
	total := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		total += r.ReadNew().Len()
		select {
		case <-done:
			total += r.ReadNew().Len()
			if total != 4000 {
				t.Errorf("read %d tuples, want 4000", total)
			}
			return
		default:
		}
	}
}

func TestLogName(t *testing.T) {
	if NewLog("abc").Name() != "abc" {
		t.Error("Name lost")
	}
}

// TestSegmentViews: Span(p) views positions p up to the end of p's segment
// (or the log's end), capacity-clamped, and panics outside the log.
func TestSegmentViews(t *testing.T) {
	l := NewLog("t")
	for v := int64(0); v < 3000; v++ {
		l.Append(tup(v))
	}
	for p := 0; p < l.Len(); {
		seg := l.Span(p).Rows
		if len(seg) == 0 || cap(seg) != len(seg) || seg[0].Row[0].AsInt() != int64(p) {
			t.Fatalf("Span(%d) = %d tuples (cap %d)", p, len(seg), cap(seg))
		}
		if got := vals(l.NewReaderAt(p).ReadNew())[:len(seg)]; !reflect.DeepEqual(got, vals(delta.Seq{seg})) {
			t.Fatalf("Span(%d) disagrees with a read from %d", p, p)
		}
		if p+len(seg) < l.Len() && len(l.NewReaderAt(p).ReadNew()[0]) != len(seg) {
			t.Fatalf("Span(%d) does not end where its segment does", p)
		}
		p += len(seg)/2 + 1
	}
	defer func() {
		if recover() == nil {
			t.Error("Span past the log's end did not panic")
		}
	}()
	l.Span(l.Len())
}

// TestStagedSegments: a staged slice becomes one segment without a copy,
// invisible until revealed; Reveal counts into the last staged segment,
// never hides a tuple, and staging nothing changes nothing.
func TestStagedSegments(t *testing.T) {
	l := NewLog("table")
	w0 := []delta.Tuple{tup(0), tup(1), tup(2), tup(3)}
	l.Stage(w0)
	r := l.NewReader()
	if l.Len() != 0 || r.Pending() != 0 || r.ReadNew() != nil {
		t.Fatalf("staged tuples visible before Reveal: Len %d", l.Len())
	}
	l.Reveal(3)
	if got := vals(r.ReadNew()); !reflect.DeepEqual(got, []int64{0, 1, 2}) {
		t.Fatalf("read after Reveal(3) = %v", got)
	}
	seg := l.Span(1).Rows
	if len(seg) != 2 || cap(seg) != 2 || &seg[0] != &w0[1] {
		t.Fatalf("Span(1) = %d tuples (cap %d), aliasing the staged slice: %v", len(seg), cap(seg), &seg[0] == &w0[1])
	}
	l.Reveal(1) // monotone: hides nothing
	if l.Len() != 3 {
		t.Fatalf("Reveal(1) after Reveal(3): Len %d", l.Len())
	}
	l.Stage(nil)
	l.Reveal(4)
	if l.Len() != 4 {
		t.Fatalf("empty stage moved Reveal off the staged segment: Len %d", l.Len())
	}
	// Staging the next window reveals nothing of it, and Reveal counts into it.
	w1 := []delta.Tuple{tup(4), tup(5)}
	l.Stage(w1)
	if l.Len() != 4 || r.Pending() != 1 {
		t.Fatalf("after staging w1: Len %d, pending %d", l.Len(), r.Pending())
	}
	l.Reveal(1)
	if got := vals(r.ReadNew()); !reflect.DeepEqual(got, []int64{3, 4}) {
		t.Fatalf("read after revealing 1 of w1 = %v", got)
	}
	if seg := l.Span(4).Rows; len(seg) != 1 || &seg[0] != &w1[0] {
		t.Fatalf("Span(4) = %d tuples; want w1's revealed prefix, aliased", len(seg))
	}
	l.Reveal(9)
	if l.Len() != 6 || vals(delta.Seq{l.Span(5).Rows})[0] != 5 {
		t.Fatalf("Reveal past the segment: Len %d", l.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Span past the revealed end did not panic")
		}
	}()
	l.Stage([]delta.Tuple{tup(6)})
	l.Span(6)
}
