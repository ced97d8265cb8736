package exec

import (
	"math/bits"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// This file implements shared scans as views over their table's log. A scan
// stores nothing: its output is fully determined by the table log and its
// markers' truth columns (truth.go), so a firing only advances the scan's
// cursor, fills the columns over the new rows and charges its modeled Work
// from counts. Every consumer — the parent operator of a scan inside a
// subplan, or a parent subplan of a scan-rooted one — reads the rows it
// needs through its own viewReader, which recomputes each row's bits from
// the columns word by word and yields only the rows its operator's queries
// pass (query-set pushdown).
//
// The table log keeps a window's rows in one of two encodings (see
// buffer.Log): rows its caller keeps, read in place, or columns. The latest
// column segment, the open window's, is also rows, materialized once into
// the log's slab, so a Session's steps read rows in place too. A sealed
// column segment is read from its columns: a fill materializes only its
// predicate's columns, a view reader only the rows it yields.

// scanExec is a shared scan: the cursor over a table log and the truth
// columns of its marker predicates.
type scanExec struct {
	op      *mqo.Op
	batch   int
	log     *buffer.Log
	markers []marker
	// cols[k] memoizes markers[k]'s outcome per table row; qcols lists the
	// scan's queries in order with the column deciding each (nil: no
	// predicate, the query passes every row). counts is the registry's
	// lifetime counters.
	cols   []*truthCol
	qcols  []qcol
	counts *scanCounts
	// pos is the cursor: the scan covers table log positions [0, pos).
	// limit caps a firing's advance during graft replay (-1: none).
	pos, limit int
	// out counts the rows of [0, pos) some query of the scan passes: the
	// tuples a materialized scan would have logged.
	out int64
	ch  vec.Chunk
	// predCols[k] lists the columns markers[k] reads. A fill over a sealed
	// column segment gathers them into sc, the scratch of the executor's
	// view readers.
	predCols [][]int
	sc       *viewScratch
}

type qcol struct {
	bit mqo.Bitset
	col *truthCol
}

// newScanExec builds a scan over log at cursor 0, each marker's truth column
// attached through h, the holder of the executor it belongs to, whose view
// scratch is sc. Keys are built here, once per scan; firings and readers
// only read the columns.
func newScanExec(op *mqo.Op, batch int, h *holder, log *buffer.Log, sc *viewScratch) *scanExec {
	s := &scanExec{op: op, batch: batch, log: log, markers: compileMarkers(op, nil), limit: -1, counts: &h.reg.counts, sc: sc}
	s.cols = make([]*truthCol, len(s.markers))
	s.predCols = make([][]int, len(s.markers))
	for k, m := range s.markers {
		s.cols[k] = h.attach(truthState, truthKey(op.Table.Name, op.Preds[m.q])).(*truthCol)
		s.predCols[k] = expr.Columns(m.pred.Source())
	}
	for _, q := range op.Queries.Members() {
		qc := qcol{bit: mqo.Bit(q)}
		for k, m := range s.markers {
			if m.q == q {
				qc.col = s.cols[k]
			}
		}
		s.qcols = append(s.qcols, qc)
	}
	return s
}

// fire advances the cursor to the log's end (or the replay limit), fills the
// truth columns over the rows it passes, and returns the scan's modeled
// Work: every covered row is a tuple read, every row some query passes an
// output tuple — what stamping and filtering the rows would have charged.
func (s *scanExec) fire() Work {
	from, to := s.pos, s.log.Len()
	if s.limit >= 0 && s.limit < to {
		to = s.limit
	}
	if to <= from {
		return Work{}
	}
	s.fill(from, to)
	n := s.count(from, to, s.op.Queries)
	s.pos = to
	s.out += n
	return Work{Tuples: int64(to - from), Output: n}
}

// fill extends every column of the scan's queries to cover positions
// [0, to), evaluating the rows past each column's end. This is the only
// place marker predicates run on table rows. It counts, per column, the
// rows of [from, to) evaluated and those another scan had already filled.
// A column is filled under its lock in one go, so of two scans of one table
// firing at once exactly one evaluates each row.
func (s *scanExec) fill(from, to int) {
	var evaluated, served int64
	for k := range s.markers {
		m := &s.markers[k]
		if !s.op.Queries.Has(m.q) {
			continue
		}
		c := s.cols[k]
		c.mu.Lock()
		served += int64(max(min(c.n, to)-from, 0))
		evaluated += int64(max(to-c.n, 0))
		for c.n < to {
			sp := s.log.Span(c.n)
			n := min(sp.N, to-c.n)
			if s.batch >= 1 {
				n = min(n, s.batch)
			}
			if sp.Rows != nil {
				s.ch.Reset(sp.Rows[:n])
			} else {
				s.columnView(sp.Cols, sp.Off, n, s.predCols[k])
			}
			c.append(s.ch.Sel, m.pred.Truths(&s.ch, s.ch.Sel))
		}
		c.mu.Unlock()
	}
	s.ch.Reset(nil)
	if evaluated+served > 0 {
		s.counts.evaluated.Add(evaluated)
		s.counts.served.Add(served)
	}
}

// columnView points the scan's chunk at rows [off, off+n) of cols as a
// column view (vec.Chunk.Proj) holding only the columns listed in which:
// what a marker predicate reads. The chunk's tuples only carry its length.
// The view's vectors live in the executor's scratch and double up to one
// chunk, so a scan that fills little never holds a chunk-sized buffer.
// A scan fires between two sources' reads (SubplanExec.run), so no view
// chunk of the executor is live.
func (s *scanExec) columnView(cols *buffer.Columns, off, n int, which []int) {
	sc := s.sc
	if cap(sc.tup) < n {
		sc.tup = make([]delta.Tuple, 0, grow(cap(sc.tup), n, s.batch))
	}
	if w := cols.Width(); len(sc.proj) < w {
		sc.proj = append(sc.proj, make([][]value.Value, w-len(sc.proj))...)
	}
	for _, j := range which {
		if cap(sc.proj[j]) < n {
			sc.proj[j] = make([]value.Value, grow(cap(sc.proj[j]), n, s.batch))
		}
		sc.proj[j] = sc.proj[j][:n]
		cols.Column(sc.proj[j], j, off)
	}
	s.ch.Reset(sc.tup[:n])
	s.ch.Proj = sc.proj
}

// grow returns the capacity a scratch of capacity c grows to for n
// elements: at least n, doubling, and no more than limit when limit ≥ 1.
func grow(c, n, limit int) int {
	size := max(n, 2*c)
	if limit >= 1 {
		size = max(n, min(size, limit))
	}
	return size
}

// count returns how many rows of [from, to) some query of want the scan
// serves passes, OR-ing those queries' columns a block of words at a time.
func (s *scanExec) count(from, to int, want mqo.Bitset) int64 {
	for _, qc := range s.qcols {
		if qc.col == nil && want&qc.bit != 0 {
			return int64(to - from)
		}
	}
	var n int64
	var acc [16]uint64
	for lo := from; lo < to; {
		w0 := lo >> 6
		hi := min(to, (w0+len(acc))<<6)
		words := acc[:(hi-1)>>6-w0+1]
		clear(words)
		for _, qc := range s.qcols {
			if want&qc.bit != 0 {
				qc.col.orWords(words, w0)
			}
		}
		for i, w := range words {
			n += int64(bits.OnesCount64(w & rangeMask(w0+i, lo, hi)))
		}
		lo = hi
	}
	return n
}

// orWords ORs the column's words w0, w0+1, ... into dst. The caller reads
// only positions below the column's length.
func (c *truthCol) orWords(dst []uint64, w0 int) {
	c.mu.Lock()
	for i, w := range c.words[w0 : w0+len(dst)] {
		dst[i] |= w
	}
	c.mu.Unlock()
}

// rangeMask selects, within word w (positions 64w to 64w+63), the positions
// in [lo, hi).
func rangeMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; lo > base {
		m <<= uint(lo - base)
	}
	if hi < (w+1)<<6 {
		m &= 1<<uint(hi-w<<6) - 1
	}
	return m
}

// viewReader is one consuming operator's cursor over a scan's view. Its
// positions are table log positions: each execution reads [off, end), end
// being the producing scan's cursor capped at the replay limit, so a reader
// paces exactly like a reader of the scan's materialized output would. It
// yields only the rows some of its queries pass, each tuple carrying those
// queries' bits, in chunks of at most size tuples built in its scratch; it
// counts the rows of the scan's output it skips, which the consuming
// operator would have read and dropped.
//
// A chunk's rows are the table log's own rows (a row segment, or the open
// window's slab) or rows materialized into the scratch from a sealed column
// segment; Next reports the last two as borrowed: their rows are rewritten
// by the next chunk or the next window. Only a join arrangement keeps an input row
// past its chunk, and it copies a borrowed one when it creates an entry
// (joinArr.apply). Every other consumer keeps values, not rows: projections
// and joins carve new output rows, a join flushes its marker candidates
// within the chunk, aggregates copy group keys into their index's keyArena
// and feed accumulators (MIN/MAX's ordset included) plain numbers.
type viewReader struct {
	scan *scanExec
	// want is the consumer's queries the scan serves.
	want     mqo.Bitset
	off, end int
	limit    int
	size     int
	// span is the table log span starting at position spanAt, dropped at
	// open: the next window may have rewritten its rows.
	span    buffer.Span
	spanAt  int
	sc      *viewScratch
	yielded int64
	skipped int64
}

// viewScratch is the chunk scratch of view readers. The readers of one
// executor share one: it reads one source at a time, a chunk lives only
// while the pushes it causes run, and hand-offs carry rows operators carved,
// never a view's, so at most one view chunk is live. vals holds the rows a
// chunk materializes from a sealed column segment and idx a block's wanted
// rows in it; proj is the column view a scan's fill gathers from one
// (scanExec.columnView).
type viewScratch struct {
	tup    []delta.Tuple
	bits   []mqo.Bitset
	yw, ow []uint64
	vals   []value.Value
	idx    []int32
	proj   [][]value.Value
}

// newViewReader returns a reader of the scan's view for a consumer serving
// queries, at table position off, building its chunks in sc.
func newViewReader(s *scanExec, queries mqo.Bitset, batch, off int, sc *viewScratch) *viewReader {
	size := batch
	if size < 1 {
		size = vec.DefaultBatch
	}
	return &viewReader{scan: s, want: queries.Intersect(s.op.Queries), off: off, limit: -1, size: size, sc: sc}
}

func (v *viewReader) open() {
	v.span, v.spanAt = buffer.Span{}, 0
	v.end = v.scan.pos
	if v.limit >= 0 && v.limit < v.end {
		v.end = v.limit
	}
}

func (v *viewReader) setLimit(n int) { v.limit = n }

func (v *viewReader) close() (skipped int64) {
	if v.yielded+v.skipped > 0 {
		v.scan.counts.viewRows.Add(v.yielded)
		v.scan.counts.skipped.Add(v.skipped)
	}
	skipped = v.skipped
	v.yielded, v.skipped = 0, 0
	return skipped
}

// Next yields the next chunk: the wanted rows of consecutive blocks of one
// log segment, until the chunk is at least half full or the segment or the
// read ends (a chunk spans segments only while it is still empty, so chunks
// follow the table log's segments as a log reader's windows do). A block
// never covers more rows than the chunk has room left, so the scratch never
// grows past size, nor past what the read covers.
func (v *viewReader) Next() ([]delta.Tuple, bool, bool) {
	// The scratch fits the read, doubling up to one chunk: readers of small
	// tables, or at high paces, never hold a chunk-sized buffer.
	sc := v.sc
	if n := min(v.size, v.end-v.off); len(sc.bits) < n {
		n = min(v.size, max(n, 2*len(sc.bits)))
		if cap(sc.tup) < n {
			sc.tup = make([]delta.Tuple, 0, n)
		}
		sc.bits = make([]mqo.Bitset, n)
		sc.yw = make([]uint64, n/64+2)
		sc.ow = make([]uint64, n/64+2)
	}
	out := sc.tup[:0]
	for v.off < v.end && 2*len(out) < v.size {
		if v.off < v.spanAt || v.off >= v.spanAt+v.span.N {
			v.span, v.spanAt = v.scan.log.Span(v.off), v.off
		}
		n := min(v.end-v.off, v.spanAt+v.span.N-v.off, v.size-len(out))
		out = v.block(out, v.off-v.spanAt, n, v.off)
		v.off += n
		if len(out) > 0 && v.off == v.spanAt+v.span.N {
			break
		}
	}
	if len(out) == 0 {
		return nil, false, false
	}
	v.yielded += int64(len(out))
	return out, v.span.Cols != nil, true
}

// block appends to out the wanted rows among the n rows of the span from
// its row first, which sit at table positions [p, p+n), and counts the
// skipped ones. Each query's column is read word by word under its lock:
// yw collects the rows a wanted query passes, ow those another query of
// the scan passes, and a wanted query's passing rows get its bit. A span
// without rows materializes the wanted ones into the scratch.
func (v *viewReader) block(out []delta.Tuple, first, n, p int) []delta.Tuple {
	q := p + n
	w0 := p >> 6
	nw := (q-1)>>6 - w0 + 1
	yw, ow, rb := v.sc.yw[:nw], v.sc.ow[:nw], v.sc.bits[:n]
	clear(yw)
	clear(ow)
	clear(rb)
	for _, qc := range v.scan.qcols {
		wanted := v.want&qc.bit != 0
		dst := ow
		if wanted {
			dst = yw
		}
		c := qc.col
		if c != nil {
			c.mu.Lock()
		}
		for i := range dst {
			w := rangeMask(w0+i, p, q)
			if c != nil {
				w &= c.words[w0+i]
			}
			dst[i] |= w
			for base := (w0+i)<<6 - p; wanted && w != 0; w &= w - 1 {
				rb[base+bits.TrailingZeros64(w)] |= qc.bit
			}
		}
		if c != nil {
			c.mu.Unlock()
		}
	}
	if rows := v.span.Rows; rows != nil {
		rows = rows[first : first+n]
		for k, y := range yw {
			v.skipped += int64(bits.OnesCount64(ow[k] &^ y))
			for base := (w0+k)<<6 - p; y != 0; y &= y - 1 {
				j := base + bits.TrailingZeros64(y)
				out = append(out, delta.Tuple{Row: rows[j].Row, Bits: rb[j], Sign: rows[j].Sign})
			}
		}
		return out
	}
	// A sealed column segment: carve the wanted rows, then gather them
	// column by column. vals grows, doubling, to what chunks yield; rows
	// carved before a growth stay in the old array.
	cols, width, at := v.span.Cols, v.span.Cols.Width(), len(out)
	wanted := 0
	for _, y := range yw {
		wanted += bits.OnesCount64(y)
	}
	if need := (at + wanted) * width; len(v.sc.vals) < need {
		v.sc.vals = make([]value.Value, grow(len(v.sc.vals), need, v.size*width))
	}
	idx := v.sc.idx[:0]
	for k, y := range yw {
		v.skipped += int64(bits.OnesCount64(ow[k] &^ y))
		for base := (w0+k)<<6 - p; y != 0; y &= y - 1 {
			j := base + bits.TrailingZeros64(y)
			r := len(out) * width
			out = append(out, delta.Tuple{Row: v.sc.vals[r : r+width : r+width], Bits: rb[j], Sign: delta.Insert})
			idx = append(idx, int32(j))
		}
	}
	cols.Gather(v.sc.vals[at*width:], v.span.Off+first, idx, len(idx), nil)
	v.sc.idx = idx
	return out
}
