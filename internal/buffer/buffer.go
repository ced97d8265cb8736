// Package buffer provides the append-only delta logs that connect subplans:
// a subplan whose root has multiple parent subplans materializes its output
// into a Log, and each parent tracks its own read offset (the role Kafka
// topics play in the paper's prototype). Base-table delta logs use the same
// type.
package buffer

import (
	"fmt"
	"sync"

	"ishare/internal/delta"
)

// Log is an append-only sequence of delta tuples, safe for concurrent use.
type Log struct {
	mu     sync.RWMutex
	tuples []delta.Tuple
	name   string
}

// NewLog returns an empty log with a diagnostic name.
func NewLog(name string) *Log {
	return &Log{name: name}
}

// Name returns the log's diagnostic name.
func (l *Log) Name() string { return l.name }

// Append adds tuples to the end of the log.
func (l *Log) Append(ts ...delta.Tuple) {
	l.mu.Lock()
	l.tuples = append(l.tuples, ts...)
	l.mu.Unlock()
}

// Len returns the number of tuples written so far.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.tuples)
}

// Slice returns a read-only view of tuples [from, to). The log is
// append-only and logged tuples are immutable, so the view stays valid (and
// allocation-free) under concurrent appends: the capacity clamp keeps later
// appends — which either write past to or relocate the log's storage —
// outside the view. Callers must not write through it. Slice panics if the
// range is invalid so offset bugs surface immediately.
func (l *Log) Slice(from, to int) []delta.Tuple {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 || to < from || to > len(l.tuples) {
		panic(fmt.Sprintf("buffer %s: bad slice [%d,%d) of %d", l.name, from, to, len(l.tuples)))
	}
	return l.tuples[from:to:to]
}

// All returns a read-only view of every tuple written so far.
func (l *Log) All() []delta.Tuple {
	return l.Slice(0, l.Len())
}

// Reset discards all contents (used when re-running an experiment).
func (l *Log) Reset() {
	l.mu.Lock()
	l.tuples = nil
	l.mu.Unlock()
}

// Reader is one consumer's cursor over a log. Each parent subplan owns one
// reader per input buffer, so parents consume at independent paces.
type Reader struct {
	log   *Log
	off   int
	limit int
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

// SetLimit caps ReadNew at log position n until ClearLimit. Replay after a
// plan graft uses this to feed an executor exactly one sealed window's worth
// of input even though the log already holds the full history.
func (r *Reader) SetLimit(n int) { r.limit = n }

// ClearLimit removes the ReadNew cap.
func (r *Reader) ClearLimit() { r.limit = -1 }

// ReadNew returns all tuples appended since the previous call and advances
// the cursor past them.
func (r *Reader) ReadNew() []delta.Tuple {
	end := r.log.Len()
	if r.limit >= 0 && end > r.limit {
		end = r.limit
	}
	if end <= r.off {
		return nil
	}
	out := r.log.Slice(r.off, end)
	r.off = end
	return out
}

// Offset returns the cursor position.
func (r *Reader) Offset() int { return r.off }

// Pending returns how many tuples are readable without advancing.
func (r *Reader) Pending() int { return r.log.Len() - r.off }
