// Package buffer provides the append-only delta logs that connect subplans:
// a subplan whose root is a join, projection or aggregation with multiple
// parent subplans materializes its output into a Log, and each parent tracks
// its own read offset (the role Kafka topics play in the paper's prototype).
// Base-table delta logs use the same type. A shared scan keeps no log: its
// readers read the table log through it (see exec's scan views).
//
// Like a Kafka partition, a Log is stored as segments that are never
// reallocated. A table log keeps each trigger window's arrivals as one staged
// segment, the caller's slice, revealed prefix by prefix as the window's data
// arrives. Only Append copies: a subplan's producer reuses its buffers, so
// each tuple is copied once into the tail segment, and a new segment opens
// when the tail is full. Readers consume the segments in place as a
// delta.Seq of capacity-clamped views, so no path ever holds a contiguous
// copy of a log. A segment is also the unit a future frontier will truncate.
package buffer

import (
	"fmt"
	"slices"
	"sync"

	"ishare/internal/delta"
)

// maxSegment caps a segment's capacity in tuples. Segment capacities double
// from the first append's size up to this cap.
const maxSegment = 1024

// Log is an append-only sequence of delta tuples, safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	// segs holds the segments in order; none is empty, and every appended
	// one but the last is full. starts[i] is the log position of segs[i][0],
	// and n the length readers see.
	segs   [][]delta.Tuple
	starts []int
	n      int
	name   string
}

// NewLog returns an empty log with a diagnostic name.
func NewLog(name string) *Log {
	return &Log{name: name}
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
		if last < 0 || len(l.segs[last]) == cap(l.segs[last]) {
			prev := 0
			if last >= 0 {
				prev = cap(l.segs[last])
			}
			l.segs = append(l.segs, make([]delta.Tuple, 0, min(max(len(ts), 2*prev), maxSegment)))
			l.starts = append(l.starts, l.n)
			last++
		}
		seg := l.segs[last]
		k := min(len(ts), cap(seg)-len(seg))
		l.segs[last] = append(seg, ts[:k]...)
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
	if last := len(l.segs) - 1; last >= 0 {
		l.n = l.starts[last] + len(l.segs[last])
	}
	l.starts = append(l.starts, l.n)
	l.segs = append(l.segs, ts[:len(ts):len(ts)])
	l.mu.Unlock()
}

// Reveal makes the first k tuples of the last staged segment visible. It
// never hides a tuple: revealing fewer than are visible is a no-op.
func (l *Log) Reveal(k int) {
	l.mu.Lock()
	if last := len(l.segs) - 1; last >= 0 {
		l.n = max(l.n, l.starts[last]+min(k, len(l.segs[last])))
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
// and guarantees 0 <= from < to <= l.n.
func (l *Log) views(dst delta.Seq, from, to int) delta.Seq {
	for i := l.segment(from); from < to; i++ {
		seg := l.segs[i]
		a, b := from-l.starts[i], min(len(seg), to-l.starts[i])
		dst = append(dst, seg[a:b:b])
		from += b - a
	}
	return dst
}

// Segment returns the capacity-clamped view of log positions [p, e), where e
// is the end of the segment holding p or the log's end, whichever comes
// first. It panics unless 0 <= p < Len().
func (l *Log) Segment(p int) []delta.Tuple {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if p < 0 || p >= l.n {
		panic(fmt.Sprintf("buffer %s: segment at %d of %d", l.name, p, l.n))
	}
	i := l.segment(p)
	e := min(len(l.segs[i]), l.n-l.starts[i])
	return l.segs[i][p-l.starts[i] : e : e]
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
