package exec

import (
	"fmt"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// joinExec is a symmetric hash join over delta streams. Both sides keep a
// multiset hash table of arrived tuples; each incoming delta updates its own
// side and probes the other, producing
//
//	Δ(L⋈R) = ΔL ⋈ R_old  ∪  (L_old + ΔL) ⋈ ΔR,
//
// with output sign the product of the delta's sign and the matched tuples'
// (positive) multiplicity, and output bits the intersection of both sides'
// bits restricted to the operator's query set. An empty key list is a cross
// join: every tuple lands in one bucket.
//
// Build sides live in the arrangement registry: an attached executor may be
// probing state that other joins built (and are still building). Each side
// therefore addresses its arrangement through a handle — a stream position
// plus a canonical bitset remap — and every read goes through the entry's
// multiplicity history at that position, so what a probe sees is exactly
// the side's own applied prefix regardless of who else shares the bytes.
//
// Execution is chunked and push-driven: the executor feeds the join every
// left chunk of an execution, then every right chunk. Each chunk's key
// expressions evaluate column-at-a-time, the whole key column set is hashed
// in one pass, and every probe is resolved against the other side's table
// in one batch. State updates and chain walks then run in input order under
// the arrangement locks, so the delta algebra (and the modeled work) is
// identical to tuple-at-a-time execution.
type joinExec struct {
	opBase
	op          *mqo.Op
	batch       int
	markers     []marker
	left, right *joinSide
	// Candidates queued for the markers, in probe order: the two input rows
	// by reference, the candidate's bits and sign (cand, the chunk the
	// markers run over) and its multiplicity. flushCand evaluates the
	// markers over a column view of the pairs (view, filled only at the
	// columns in markCols) and carves rows for the survivors alone. A join
	// without markers carves at probe time and queues nothing.
	cand         []delta.Tuple
	candL, candR []value.Row
	candMult     []int
	candCh       vec.Chunk
	view         [][]value.Value
	markCols     []markCol
	// cols is the join's output layout (see layouts): the logical columns
	// it emits. runs tile an output row with contiguous copies out of the
	// two input rows.
	cols []int
	runs []colRun
	// arena carves the output rows; emitted rows are retained downstream
	// and never rewritten.
	arena vec.RowArena
	// scratch holds the rows of one hand-off for a consumer that copies
	// them (outlet.copies) instead of the arena, and is reused after every
	// hand-off.
	scratch []value.Value
	// held is the pair of arrangements a probe has locked, which a
	// hand-off releases meanwhile — the consumer may lock one of them —
	// and nil outside a probe's critical section.
	held [2]*joinArr
}

// markCol is one output column a marker reads: its physical position in
// the join's layout and the input value it copies.
type markCol struct {
	pos   int
	right bool
	from  int
}

// colRun is one contiguous copy into an output row: values from:to of the
// left (or right) input row, which is in that child's physical layout.
type colRun struct {
	right    bool
	from, to int
}

// newJoinExec compiles the join against lay: keys over each child's
// physical rows, markers over the join's own layout, and the copy runs that
// carve its output rows.
func newJoinExec(op *mqo.Op, batch int, lay layouts) *joinExec {
	l, r := op.Children[0], op.Children[1]
	j := &joinExec{
		op:      op,
		batch:   batch,
		left:    newJoinSide(l, op.LeftKeys, lay),
		right:   newJoinSide(r, op.RightKeys, lay),
		cols:    lay.cols(op),
		markers: compileMarkers(op, lay.colMap(op)),
	}
	lw := len(l.Schema())
	lm, rm := lay.colMap(l), lay.colMap(r)
	for _, c := range j.cols {
		right, m := c >= lw, lm
		if right {
			c, m = c-lw, rm
		}
		p := c
		if m != nil {
			var ok bool
			if p, ok = m[c]; !ok {
				panic(fmt.Sprintf("exec: join %d keeps column %d its input does not carry", op.ID, c))
			}
		}
		if n := len(j.runs); n > 0 && j.runs[n-1].right == right && j.runs[n-1].to == p {
			j.runs[n-1].to++
		} else {
			j.runs = append(j.runs, colRun{right: right, from: p, to: p + 1})
		}
	}
	if len(j.markers) > 0 {
		j.view = make([][]value.Value, len(j.cols))
		read := make([]bool, len(j.cols))
		for _, m := range j.markers {
			for _, c := range expr.Columns(m.pred.Source()) {
				read[c] = true
			}
		}
		at := 0
		for _, run := range j.runs {
			for from := run.from; from < run.to; from++ {
				if read[at] {
					j.markCols = append(j.markCols, markCol{pos: at, right: run.right, from: from})
				}
				at++
			}
		}
	}
	return j
}

// attach re-keys both sides through the executor's holder. A side whose
// arrangement key matches one already built probes it in place of building
// its own; an unshareable (or sharing-disabled) side gets a private
// registered arrangement, so refcount accounting is uniform either way. A
// join a test builds without attaching keeps private unregistered
// arrangements.
func (j *joinExec) attach(h *holder) {
	lk := mqo.JoinSideArrangeKey(j.op, 0)
	rk := mqo.JoinSideArrangeKey(j.op, 1)
	j.left.arr = h.attach(joinState, lk.Sig).(*joinArr)
	j.left.toCanon, j.left.fromCanon = newBitMaps(lk.Order)
	j.right.arr = h.attach(joinState, rk.Sig).(*joinArr)
	j.right.toCanon, j.right.fromCanon = newBitMaps(rk.Order)
}

// joinSide is one side's handle onto its build arrangement plus the
// per-exec probe machinery: compiled key expressions, the hasher, and
// chunk scratch. pos is the number of restricted-stream survivors this
// side has applied; toCanon/fromCanon remap bitsets between the exec's
// global query ids and the arrangement's canonical slots (nil = identity).
type joinSide struct {
	arr                *joinArr
	pos                int64
	toCanon, fromCanon bitMap
	keys               []expr.Expr
	kevs               []*vec.Eval
	// keyIdx[c] is the column index when key c is a bare column reference —
	// the common case, letting keyAt read the stored row directly — or -1
	// for a computed key, re-evaluated per probe comparison.
	keyIdx []int
	// keyBuf is the scratch row holding the current probe tuple's key.
	keyBuf value.Row
	hasher *value.Hasher
	// Per-chunk scratch: key column vectors, key hashes, and the other
	// side's chain heads for each probe.
	ch      vec.Chunk
	keyCols [][]value.Value
	hashes  []uint64
	refs    []int32
}

// newJoinSide compiles one side's key expressions, written over child's
// logical schema, against the child's physical rows.
func newJoinSide(child *mqo.Op, logical []expr.Expr, lay layouts) *joinSide {
	keys := make([]expr.Expr, len(logical))
	for c, k := range logical {
		keys[c] = lay.over(child, k)
	}
	s := &joinSide{
		arr:     &joinArr{},
		keys:    keys,
		kevs:    vec.CompileAll(keys),
		keyIdx:  make([]int, len(keys)),
		keyCols: make([][]value.Value, len(keys)),
		keyBuf:  make(value.Row, 0, len(keys)),
		hasher:  value.NewHasher(),
	}
	for c, k := range keys {
		s.keyIdx[c] = -1
		if col, ok := k.(*expr.Column); ok {
			s.keyIdx[c] = col.Index
		}
	}
	return s
}

// keyAt returns key column c of the entry's row. Entries written by other
// sharers evaluate identically: signature-equal sides have canon-equal key
// expressions over the same row schema.
func (s *joinSide) keyAt(e *arrEntry, c int) value.Value {
	if idx := s.keyIdx[c]; idx >= 0 {
		return e.row[idx]
	}
	return s.keys[c].Eval(e.row)
}

// keyMatches reports whether the entry's key equals key. Chains hold one
// 64-bit hash, so mismatches are collision-rare; key columns compare in
// order under value.Equal.
func (s *joinSide) keyMatches(e *arrEntry, key value.Row) bool {
	for c := range key {
		if !value.Equal(s.keyAt(e, c), key[c]) {
			return false
		}
	}
	return true
}

func (j *joinExec) finish() {
	j.handOff()
	j.left.ch.Reset(nil)
	j.right.ch.Reset(nil)
}

// push drives one chunk of one side's deltas through the join. Phase 1,
// slot 0: left deltas update left state and probe the right state before
// the right batch is applied. Phase 2, slot 1: right deltas update right
// state and probe the left state including the tuples just added.
func (j *joinExec) push(slot int, tup []delta.Tuple, borrowed bool) {
	self, other := j.left, j.right
	if slot == 1 {
		self, other = other, self
	}
	w := &j.w
	w.Tuples += int64(len(tup))
	ch := &self.ch
	ch.Reset(tup)
	ch.InitBits(j.op.Queries)
	ch.NarrowNonEmpty()
	if len(ch.Sel) == 0 {
		return
	}
	cols := self.keyCols
	for c, ev := range self.kevs {
		cols[c] = ev.Values(ch, ch.Sel)
	}
	// NULL never equi-joins: tuples with a NULL key leave the selection
	// (no state update, no probe).
	ch.Sel = ch.Sel.Compact(func(i int32) bool {
		for _, col := range cols {
			if col[i].IsNull() {
				return false
			}
		}
		return true
	})
	if len(ch.Sel) == 0 {
		return
	}
	if cap(self.hashes) < len(tup) {
		self.hashes = make([]uint64, len(tup))
		self.refs = make([]int32, len(tup))
	}
	hashes := self.hashes[:len(tup)]
	refs := self.refs[:len(tup)]
	self.hasher.HashCols(cols, ch.Sel, hashes)
	// Updates and probes for the chunk run under both arrangements' locks:
	// other executors may share either side. Candidates hold the matched
	// entry's row by reference — entry rows are immutable — so marker
	// evaluation and emission (flushCand) run outside the critical section,
	// except for full batches of a high fan-out chunk. Entries never move,
	// so a walk survives a hand-off releasing the locks (handOff).
	j.held = [2]*joinArr{self.arr, other.arr}
	lockArrs(self.arr, other.arr)
	other.arr.tab.GetBatch(hashes, ch.Sel, refs)
	for _, i := range ch.Sel {
		key := self.keyBuf[:0]
		for _, col := range cols {
			key = append(key, col[i])
		}
		self.keyBuf = key
		t := delta.Tuple{Row: tup[i].Row, Bits: ch.Bits[i], Sign: tup[i].Sign}
		w.State += self.arr.apply(&self.pos, self.toCanon, t, hashes[i], borrowed)
		probeBits := other.toCanon.apply(t.Bits)
		for ref := refs[i]; ref >= 0; {
			e := other.arr.arena.At(ref)
			ref = e.next
			if !other.keyMatches(e, key) {
				continue
			}
			count := int(other.arr.countAt(e, other.pos))
			bits := other.fromCanon.apply(e.bits.Intersect(probeBits))
			if bits.Empty() || count == 0 {
				continue
			}
			sign := t.Sign
			if count < 0 {
				count, sign = -count, -sign
			}
			l, r := t.Row, e.row
			if slot == 1 {
				l, r = r, l
			}
			if len(j.markers) == 0 {
				j.emit(l, r, bits, sign, count)
				continue
			}
			j.cand = append(j.cand, delta.Tuple{Bits: bits, Sign: sign})
			j.candL = append(j.candL, l)
			j.candR = append(j.candR, r)
			j.candMult = append(j.candMult, count)
			// A high fan-out chunk flushes every batch of candidates, so
			// marker evaluation's scratch stays batch-sized.
			if len(j.cand) >= j.batch {
				j.flushCand()
			}
		}
	}
	unlockArrs(self.arr, other.arr)
	j.held = [2]*joinArr{}
	j.flushCand()
}

// emit carves one output row, the join's layout of the two input rows, and
// stages it n times, handing each full chunk on.
func (j *joinExec) emit(l, r value.Row, bits mqo.Bitset, sign delta.Sign, n int) {
	row := j.carve(l, r)
	for k := 1; k <= n; k++ {
		if j.put(delta.Tuple{Row: row, Bits: bits, Sign: sign}) {
			j.handOff()
			if j.out.copies && k < n {
				row = j.carve(l, r) // the scratch is reused
			}
		}
	}
}

// handOff hands the staged chunk on, with any locks a probe holds
// released: entries other holders add meanwhile lie past every handle's
// position, so the probe cannot see them. A consumer that copies has then
// copied what it keeps, so the scratch is free again.
func (j *joinExec) handOff() {
	if a := j.held; a[0] != nil {
		unlockArrs(a[0], a[1])
		j.out.flush()
		lockArrs(a[0], a[1])
	} else {
		j.out.flush()
	}
	j.scratch = j.scratch[:0]
}

// carve returns a new output row holding the join's layout of l and r:
// from the arena, or for a consumer that copies from the scratch, which
// grows, doubling from 128 values, to one hand-off's rows. Rows carved
// before a growth stay in the old array until the hand-off.
func (j *joinExec) carve(l, r value.Row) value.Row {
	n := len(j.cols)
	var row value.Row
	if at := len(j.scratch); !j.out.copies {
		row = j.arena.NewRow(n)
	} else {
		if at+n > cap(j.scratch) {
			j.scratch, at = make([]value.Value, 0, grow(max(cap(j.scratch), 64), n, j.out.size*n)), 0
		}
		j.scratch = j.scratch[:at+n]
		row = j.scratch[at : at+n : at+n]
	}
	at := 0
	for _, run := range j.runs {
		src := l
		if run.right {
			src = r
		}
		at += copy(row[at:], src[run.from:run.to])
	}
	return row
}

// flushCand applies the join's markers to the queued candidates
// column-at-a-time, over a view holding only the columns they read, then
// emits the survivors (with multiplicity) in probe order.
func (j *joinExec) flushCand() {
	if len(j.cand) == 0 {
		return
	}
	for _, c := range j.markCols {
		col := j.view[c.pos][:0]
		src := j.candL
		if c.right {
			src = j.candR
		}
		for _, row := range src {
			col = append(col, row[c.from])
		}
		j.view[c.pos] = col
	}
	ch := &j.candCh
	ch.Reset(j.cand)
	ch.InitBits(j.op.Queries)
	ch.Proj = j.view
	applyMarkersChunk(j.markers, ch)
	ch.Proj = nil
	for idx, t := range j.cand {
		if bits := ch.Bits[idx]; !bits.Empty() {
			j.emit(j.candL[idx], j.candR[idx], bits, t.Sign, j.candMult[idx])
		}
	}
	j.cand = j.cand[:0]
	j.candL = j.candL[:0]
	j.candR = j.candR[:0]
	j.candMult = j.candMult[:0]
}

// stateSize returns the number of live entries held on both sides; a
// self-join sharing one arrangement counts it once per side, matching the
// two per-side tables it replaces.
func (j *joinExec) stateSize() int64 { return j.left.arr.live + j.right.arr.live }
