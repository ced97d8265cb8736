package buffer

import (
	"sync"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

func tup(v int64) delta.Tuple {
	return delta.Tuple{Row: value.Row{value.Int(v)}, Bits: mqo.Bit(0), Sign: delta.Insert}
}

func TestAppendAndSlice(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2), tup(3))
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	s := l.Slice(1, 3)
	if len(s) != 2 || s[0].Row[0].AsInt() != 2 {
		t.Errorf("Slice = %v", s)
	}
	if got := len(l.All()); got != 3 {
		t.Errorf("All = %d", got)
	}
}

func TestSliceViewIsStable(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1))
	s := l.Slice(0, 1)
	// The view is capacity-clamped: later appends can never write into it,
	// whether they extend the same backing array or relocate it.
	if cap(s) != 1 {
		t.Fatalf("cap = %d, want clamped to 1", cap(s))
	}
	for i := 2; i <= 64; i++ {
		l.Append(tup(int64(i)))
	}
	if s[0].Row[0].AsInt() != 1 || s[0].Sign != delta.Insert {
		t.Error("view changed under appends")
	}
}

func TestBadSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad range")
		}
	}()
	NewLog("t").Slice(0, 1)
}

func TestIndependentReaders(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1), tup(2))
	r1, r2 := l.NewReader(), l.NewReader()
	if got := r1.ReadNew(); len(got) != 2 {
		t.Fatalf("r1 first read = %d", len(got))
	}
	l.Append(tup(3))
	if got := r1.ReadNew(); len(got) != 1 || got[0].Row[0].AsInt() != 3 {
		t.Errorf("r1 second read = %v", got)
	}
	// r2 is unaffected by r1's progress.
	if got := r2.ReadNew(); len(got) != 3 {
		t.Errorf("r2 read = %d tuples", len(got))
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
	if got := r.ReadNew(); len(got) != 1 || got[0].Row[0].AsInt() != 3 {
		t.Errorf("read after append = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a position past the end")
		}
	}()
	l.NewReaderAt(4)
}

func TestReset(t *testing.T) {
	l := NewLog("t")
	l.Append(tup(1))
	l.Reset()
	if l.Len() != 0 {
		t.Error("Reset did not clear")
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
		total += len(r.ReadNew())
		select {
		case <-done:
			total += len(r.ReadNew())
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
