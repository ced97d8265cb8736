// Package delta defines the tuples flowing through the shared incremental
// engine: rows annotated with a query-validity bitvector (SharedDB) and an
// insert/delete sign (incremental view maintenance). Updates are modeled as
// a delete plus an insert.
package delta

import (
	"fmt"

	"ishare/internal/mqo"
	"ishare/internal/value"
)

// Sign marks a tuple as an insertion or a deletion.
type Sign int8

// Tuple signs.
const (
	Insert Sign = 1
	Delete Sign = -1
)

// String renders the sign as "+" or "-".
func (s Sign) String() string {
	if s == Delete {
		return "-"
	}
	return "+"
}

// Tuple is one change record.
type Tuple struct {
	// Row holds the column values.
	Row value.Row
	// Bits says which queries the tuple is valid for.
	Bits mqo.Bitset
	// Sign distinguishes insertions from deletions.
	Sign Sign
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	return fmt.Sprintf("%s%s%s", t.Sign, t.Bits, t.Row)
}

// Seq is a delta stream stored as segments: the stream is the segments'
// concatenation, in order. A buffer.Log hands its readers the views of its
// segments this way, and an in-subplan edge passes its one output slice as a
// one-segment Seq.
type Seq [][]Tuple

// Len returns the number of tuples in the stream.
func (s Seq) Len() int {
	n := 0
	for _, seg := range s {
		n += len(seg)
	}
	return n
}

// Chunks iterates a delta stream in windows of at most size tuples,
// preserving order — the executor's chunked delta iteration. Windows never
// cross a segment boundary; a size < 1 yields each non-empty segment as one
// window. Windows alias the segments: no tuples are copied and no scratch is
// kept.
type Chunks struct {
	seq  Seq
	cur  []Tuple
	size int
}

// NewChunks returns an iterator over seq in windows of at most size.
func NewChunks(seq Seq, size int) Chunks {
	return Chunks{seq: seq, size: size}
}

// Next returns the next window, or ok=false when the stream is exhausted.
func (c *Chunks) Next() (win []Tuple, ok bool) {
	for len(c.cur) == 0 {
		if len(c.seq) == 0 {
			return nil, false
		}
		c.cur, c.seq = c.seq[0], c.seq[1:]
	}
	n := len(c.cur)
	if c.size >= 1 && n > c.size {
		n = c.size
	}
	win, c.cur = c.cur[:n:n], c.cur[n:]
	return win, true
}

// Apply folds a stream of deltas into a multiset of rows, returning the net
// row counts keyed by value.Key. It is the reference semantics used to
// check that incremental execution converges to batch results.
func Apply(tuples []Tuple, q int) map[string]int {
	counts := make(map[string]int)
	rows := make(map[string]value.Row)
	for _, t := range tuples {
		if q >= 0 && !t.Bits.Has(q) {
			continue
		}
		k := value.Key(t.Row)
		counts[k] += int(t.Sign)
		rows[k] = t.Row
		if counts[k] == 0 {
			delete(counts, k)
		}
	}
	return counts
}

// Materialize returns the net rows (with multiplicity) for query q, or for
// all queries when q is negative, folding the stream segment by segment.
// Rows come in the order each distinct row key first arrives, so equal
// streams materialize identically; a key's row is its last arrival's (keys
// equate numeric look-alikes, value.Key). Each tuple's key is encoded into
// one reused buffer, so only a new distinct row allocates a key.
func Materialize(seq Seq, q int) []value.Row {
	type net struct {
		row value.Row
		n   int
	}
	var nets []net
	var key []byte
	idx := make(map[string]int)
	for _, seg := range seq {
		for _, t := range seg {
			if q >= 0 && !t.Bits.Has(q) {
				continue
			}
			key = value.AppendKey(key[:0], t.Row)
			i, ok := idx[string(key)]
			if !ok {
				i = len(nets)
				idx[string(key)] = i
				nets = append(nets, net{})
			}
			nets[i].row = t.Row
			nets[i].n += int(t.Sign)
		}
	}
	total := 0
	for _, e := range nets {
		total += max(e.n, 0)
	}
	if total == 0 {
		return nil
	}
	out := make([]value.Row, 0, total)
	for _, e := range nets {
		for range e.n {
			out = append(out, e.row)
		}
	}
	return out
}
