// Package buffer provides the append-only delta logs that connect subplans:
// a subplan whose root is a join, projection or aggregation with multiple
// parent subplans materializes its output into a Log, and each parent tracks
// its own read offset (the role Kafka topics play in the paper's prototype).
// Base-table delta logs use the same type. A shared scan keeps no log: its
// readers read the table log through it (see exec's scan views).
//
// Like a Kafka partition, a Log is stored as segments that are never
// reallocated. A table log keeps each trigger window's arrivals as one staged
// segment, revealed prefix by prefix as the window's data arrives, in one of
// two encodings chosen by who owns the memory. A row segment is the caller's
// slice of tuples, kept as it is: the caller holds those rows anyway. A
// column segment (Columns) is what the log keeps when no one else holds the
// rows: the log materializes the rows of its latest column segment, the open
// window's, into a slab it reuses for the next one, and a sealed column
// segment is read column by column (Span). Only Append copies: a subplan's
// producer reuses its buffers, so each tuple is copied once into the tail
// segment, and a new segment opens when the tail is full. Readers consume
// the segments in place, so no path ever holds a contiguous copy of a log.
// A segment is also the unit a future frontier will truncate.
package buffer

import (
	"fmt"
	"slices"
	"sync"

	"ishare/internal/delta"
	"ishare/internal/value"
)

// maxSegment caps a segment's capacity in tuples. Segment capacities double
// from the first append's size up to this cap.
const maxSegment = 1024

// Log is an append-only sequence of delta tuples, safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	// segs holds the segments in order; none is empty, and every appended
	// one but the last is full. starts[i] is the log position of segs[i]'s
	// first tuple, and n the length readers see.
	segs   []segment
	starts []int
	n      int
	name   string
	// slab and tups hold the rows of the latest column segment, segs[open]
	// (open < 0: none), and are rewritten by the next StageColumns.
	slab []value.Value
	tups []delta.Tuple
	open int
}

// segment is one segment of a log: rows, or columns whose rows are set
// only while the segment is the latest column segment staged.
type segment struct {
	rows []delta.Tuple
	cols *Columns
}

func (s segment) len() int {
	if s.cols != nil {
		return s.cols.Len()
	}
	return len(s.rows)
}

// NewLog returns an empty log with a diagnostic name.
func NewLog(name string) *Log {
	return &Log{name: name, open: -1}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// Append copies tuples to the end of the log. It fills the tail segment and
// opens new ones of capacity max(remaining tuples, twice the previous
// segment's), capped at maxSegment; written segments never move. A log is
// either appended to or staged to, never both.
func (l *Log) Append(ts ...delta.Tuple) {
	l.mu.Lock()
	for len(ts) > 0 {
		last := len(l.segs) - 1
		if last < 0 || len(l.segs[last].rows) == cap(l.segs[last].rows) {
			prev := 0
			if last >= 0 {
				prev = cap(l.segs[last].rows)
			}
			l.segs = append(l.segs, segment{rows: make([]delta.Tuple, 0, min(max(len(ts), 2*prev), maxSegment))})
			l.starts = append(l.starts, l.n)
			last++
		}
		seg := l.segs[last].rows
		k := min(len(ts), cap(seg)-len(seg))
		l.segs[last].rows = append(seg, ts[:k]...)
		l.n += k
		ts = ts[k:]
	}
	l.mu.Unlock()
}

// Stage adds ts to the end of the log as one segment without copying it: the
// log keeps ts itself, capacity-clamped, and the caller must not write its
// tuples afterwards. They stay invisible to Len, Segment and readers until
// revealed; whatever was staged before becomes visible. Staging an empty ts
// is a no-op.
func (l *Log) Stage(ts []delta.Tuple) {
	if len(ts) == 0 {
		return
	}
	l.mu.Lock()
	l.stage(segment{rows: ts[:len(ts):len(ts)]})
	l.mu.Unlock()
}

// StageColumns is Stage for a column segment: the log keeps c and
// materializes its rows into the log's own slab, which the previous column
// segment's rows occupied; that segment is read from its columns from now
// on. The rows of c are valid only until the next StageColumns, so a reader
// that keeps one past its chunk copies it (Span.Cols tells). Staging an
// empty c is a no-op.
func (l *Log) StageColumns(c *Columns) {
	if c.Len() == 0 {
		return
	}
	l.mu.Lock()
	if l.open >= 0 {
		l.segs[l.open].rows = nil
	}
	l.slab, l.tups = c.materialize(l.slab, l.tups)
	l.open = len(l.segs)
	l.stage(segment{rows: l.tups[:c.Len():c.Len()], cols: c})
	l.mu.Unlock()
}

// stage adds seg, making whatever was staged before visible. The caller
// holds l.mu.
func (l *Log) stage(seg segment) {
	if last := len(l.segs) - 1; last >= 0 {
		l.n = l.starts[last] + l.segs[last].len()
	}
	l.starts = append(l.starts, l.n)
	l.segs = append(l.segs, seg)
}

// Reveal makes the first k tuples of the last staged segment visible. It
// never hides a tuple: revealing fewer than are visible is a no-op.
func (l *Log) Reveal(k int) {
	l.mu.Lock()
	if last := len(l.segs) - 1; last >= 0 {
		l.n = max(l.n, l.starts[last]+min(k, l.segs[last].len()))
	}
	l.mu.Unlock()
}

// Len returns the number of tuples written and revealed so far.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// views appends to dst the views covering log positions [from, to), one per
// segment touched, and returns it. Each view is capacity-clamped, so nothing
// written through an append on it can reach the log. The caller holds l.mu
// and guarantees 0 <= from < to <= l.n; a sealed column segment has no rows
// to view (Span reads it).
func (l *Log) views(dst delta.Seq, from, to int) delta.Seq {
	for i := l.segment(from); from < to; i++ {
		seg := l.segs[i]
		if seg.rows == nil {
			panic(fmt.Sprintf("buffer %s: reader over the sealed column segment at %d", l.name, l.starts[i]))
		}
		a, b := from-l.starts[i], min(len(seg.rows), to-l.starts[i])
		dst = append(dst, seg.rows[a:b:b])
		from += b - a
	}
	return dst
}

// Span is the part of one segment from a log position to the segment's end
// or the log's, whichever comes first.
type Span struct {
	// Rows are the span's tuples, capacity-clamped, when its segment has
	// rows: a row segment's, or the latest column segment's, which the log
	// rewrites at the next StageColumns. nil for a sealed column segment.
	Rows []delta.Tuple
	// Cols is the span's column segment, nil for a row segment; the span
	// is its rows [Off, Off+N). A reader that keeps a row of a span with
	// Cols set past its chunk copies it.
	Cols   *Columns
	Off, N int
}

// Span returns the span at log position p. It panics unless 0 <= p < Len().
func (l *Log) Span(p int) Span {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if p < 0 || p >= l.n {
		panic(fmt.Sprintf("buffer %s: segment at %d of %d", l.name, p, l.n))
	}
	i := l.segment(p)
	seg := l.segs[i]
	a, e := p-l.starts[i], min(seg.len(), l.n-l.starts[i])
	sp := Span{Cols: seg.cols, Off: a, N: e - a}
	if seg.rows != nil {
		sp.Rows = seg.rows[a:e:e]
	}
	return sp
}

// segment returns the index of the segment holding position p: the last one
// starting at or before it. The caller holds l.mu.
func (l *Log) segment(p int) int {
	i, found := slices.BinarySearch(l.starts, p)
	if !found {
		i--
	}
	return i
}

// Reader is one consumer's cursor over a log. Each parent subplan owns one
// reader per input buffer, so parents consume at independent paces.
type Reader struct {
	log   *Log
	off   int
	limit int
	// seq is the view list ReadNew returns, reused across calls.
	seq delta.Seq
}

// NewReader returns a cursor at the start of the log.
func (l *Log) NewReader() *Reader {
	return &Reader{log: l, limit: -1}
}

// NewReaderAt returns a cursor at position off, as if the first off tuples
// had already been read. A graft re-points a carried-over consumer at the end
// of a rebuilt producer's log this way.
func (l *Log) NewReaderAt(off int) *Reader {
	if n := l.Len(); off < 0 || off > n {
		panic(fmt.Sprintf("buffer %s: reader at %d of %d", l.name, off, n))
	}
	return &Reader{log: l, off: off, limit: -1}
}

// SetLimit caps ReadNew and Pending at log position n until ClearLimit.
// Replay after a plan graft uses this to feed an executor exactly one sealed
// window's worth of input even though the log already holds the full
// history.
func (r *Reader) SetLimit(n int) { r.limit = n }

// ClearLimit removes the ReadNew cap.
func (r *Reader) ClearLimit() { r.limit = -1 }

// end returns the position ReadNew would read up to: the log's length, or
// the limit when one is set below it. The caller holds r.log.mu.
func (r *Reader) end() int {
	if r.limit >= 0 && r.limit < r.log.n {
		return r.limit
	}
	return r.log.n
}

// ReadNew returns all tuples written since the previous call, as views of
// the log's segments in order, and advances the cursor past them; nil when
// there is nothing new. The views stay valid for good and must not be
// written through. The returned Seq itself is reused: it is valid only until
// the reader's next ReadNew.
func (r *Reader) ReadNew() delta.Seq {
	l := r.log
	l.mu.RLock()
	end := r.end()
	if end <= r.off {
		l.mu.RUnlock()
		return nil
	}
	r.seq = l.views(r.seq[:0], r.off, end)
	l.mu.RUnlock()
	r.off = end
	return r.seq
}

// Offset returns the cursor position.
func (r *Reader) Offset() int { return r.off }

// Pending returns how many tuples the next ReadNew would return, honouring
// the limit.
func (r *Reader) Pending() int {
	r.log.mu.RLock()
	defer r.log.mu.RUnlock()
	return max(r.end()-r.off, 0)
}
