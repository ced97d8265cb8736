package exec

import (
	"math/bits"
	"slices"
	"strings"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/ordset"
	"ishare/internal/plan"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// aggExec is an incremental shared hash aggregate. Groups are hashed once
// for all sharing queries; each group keeps one accumulator set per query so
// tuples valid for only a subset of queries (marked upstream) contribute
// only to those queries' results. When a group's aggregates change, the
// operator retracts its previously emitted output rows (delete deltas) and
// emits the updated rows — the eager-execution overhead at the center of the
// paper. Retracting the current MIN/MAX extremum forces a rescan of the
// group's value multiset, whose cost is what makes such queries (Q15)
// non-incrementable.
//
// The group index — the key→group hash table, encoded key strings and key
// rows — lives in an aggArr arrangement and may be shared with other
// aggregations over the same cone and GROUP BY keys; everything per-query
// (counts, accumulators, last emitted rows) stays in this executor's dense
// sidecar, indexed by the arrangement's stable group refs. Group refs are
// monotone — a drained group's sidecar state is reset but the index entry
// remains — so sidecar slots never alias across sharers no matter who
// created which group first. A slot holds no counts or accumulators itself:
// it addresses a stripe of the executor's paged state (groupState), and a
// drained group's stripe is zeroed and handed to the next new group.
//
// Input is processed in chunks: group-by and argument expressions evaluate
// column-at-a-time and the whole key column set is hashed in one pass; the
// per-tuple remainder is a chain walk comparing key rows under grouping-key
// semantics (value.RowKeyEqual — the same equivalence as the AppendKey
// encoding) and a dense-slice accumulator update. The aggregate is
// blocking: finish emits every changed group through the outlet. All
// per-execution scratch (the dirty set, emission buffers) is pooled on the
// operator and reused across incremental executions.
//
// DebugSkipExtremumRescan, when set, makes MIN/MAX accumulators skip the
// multiset rescan after their current extremum is retracted, leaving a stale
// extremum behind. It exists solely so the differential-testing harness can
// prove it detects (and shrinks) a realistic IVM bug; production code must
// never set it.
var DebugSkipExtremumRescan bool

type aggExec struct {
	opBase
	op *mqo.Op
	// arr is the (possibly shared) group index; side is this executor's
	// per-group state, dense over the arrangement's group refs. liveGroups
	// counts refs whose sidecar currently holds state.
	arr        *aggArr
	side       []aggSlot
	state      groupState
	liveGroups int64
	hasher     *value.Hasher
	// queries caches op.Queries.Members(); qslot maps a query id to its
	// dense slot in per-group accumulator arrays.
	queries []int
	qslot   [mqo.MaxQueries]int32

	// Compiled group-by and aggregate-argument expressions; argEvs[i] is nil
	// for argument-less aggregates (COUNT(*)).
	gbEvs  []*vec.Eval
	argEvs []*vec.Eval

	// gen stamps the current execution (from 1); groups whose dirtyGen
	// matches are already in the dirty list.
	gen   uint64
	dirty []int32

	// Scratch buffers, reused across chunks and executions; sidecar slots
	// clone what they retain.
	ch     vec.Chunk
	gbCols [][]value.Value
	args   [][]value.Value
	hashes []uint64
	keyRow value.Row

	// groupOutput scratch: cluster rows live in pooled per-index buffers
	// (clRows) and are cloned only when an emission actually happens.
	clusters []clustered
	clRows   []value.Row
	rowBuf   value.Row
	tupBuf   []delta.Tuple

	// sameTuples scratch.
	cmpUsed []bool

	// Slab arenas for retained emissions: emitted output rows and tuples
	// are carved from slabs instead of allocated per group.
	rowArena vec.RowArena
	tupArena vec.SlabArena[delta.Tuple]
}

type clustered struct {
	row  value.Row
	bits mqo.Bitset
}

// newAggExec compiles the aggregation's GROUP BY and argument expressions
// against its input's physical rows (lay).
func newAggExec(op *mqo.Op, lay layouts) *aggExec {
	g := &aggExec{
		op:      op,
		gen:     1,
		arr:     &aggArr{},
		hasher:  value.NewHasher(),
		queries: op.Queries.Members(),
		gbEvs:   make([]*vec.Eval, len(op.GroupBy)),
		argEvs:  make([]*vec.Eval, len(op.Aggs)),
		gbCols:  make([][]value.Value, len(op.GroupBy)),
		args:    make([][]value.Value, len(op.Aggs)),
	}
	g.state = newGroupState(len(g.queries), len(op.Aggs))
	for i, ge := range op.GroupBy {
		g.gbEvs[i] = vec.Compile(lay.over(op.Children[0], ge.E))
	}
	for i, spec := range op.Aggs {
		if spec.Arg != nil {
			g.argEvs[i] = vec.Compile(lay.over(op.Children[0], spec.Arg))
		}
	}
	for i, q := range g.queries {
		g.qslot[q] = int32(i)
	}
	return g
}

// attach re-keys the group index through the executor's holder;
// accumulator state stays private regardless (it is per-query by
// construction).
func (g *aggExec) attach(h *holder) {
	g.arr = h.attach(aggState, mqo.AggIndexArrangeKey(g.op).Sig).(*aggArr)
}

// aggSlot is this executor's state for one shared group: the stripe of
// paged state holding its per-query counts and accumulators, and the
// group's previously emitted output. The group's key string and key row are
// read from the index entry, which never changes once created. stripe == 0
// means the slot holds no state — either never touched by this sharer, or
// reset after the group drained and its retractions flushed.
type aggSlot struct {
	dirtyGen uint64
	// lastOut is the group's previously emitted output.
	lastOut []delta.Tuple
	// stripe is the group's stripe ref in the executor's groupState.
	stripe int32
}

// groupState keeps an aggregate's per-group counts and accumulators in
// pages. A group's state is one stripe: width contribution counts (one per
// query slot; the group exists for a query while its count is > 0) and
// width*naggs accumulators (naggs per query slot, flattened). Pages double
// from firstStripes stripes until a page holds about pageElems elements,
// and keep that size after: a small aggregate pays for a small page, a
// large one wastes at most one page, and growth never copies. A drained
// group's stripe is zeroed and reused by the next new group. Stripe refs
// start at 1, so a zero ref means no stripe.
type groupState struct {
	width, naggs int
	// doublings is the number of growing pages; every later page holds
	// firstStripes<<doublings stripes.
	doublings int
	counts    [][]int64
	accs      [][]accum
	used      int     // stripes handed out, freed ones included
	free      []int32 // refs of zeroed stripes
}

// Page sizing: the first page holds firstStripes = 1<<firstShift stripes,
// a full-size page about pageElems elements (counts or accumulators,
// whichever a stripe has more of).
const (
	firstShift   = 2
	firstStripes = 1 << firstShift
	pageElems    = 4096
)

func newGroupState(width, naggs int) groupState {
	p := groupState{width: width, naggs: naggs}
	for elems := max(width*naggs, width, 1) * firstStripes; elems < pageElems; elems *= 2 {
		p.doublings++
	}
	return p
}

// locate returns stripe i's page and its index within the page; page sizes
// are powers of two, so it only shifts and masks.
func (p *groupState) locate(i int) (page, off int) {
	u := uint(i)
	if doubled := uint(firstStripes<<p.doublings - firstStripes); u >= doubled {
		shift := firstShift + p.doublings
		return p.doublings + int((u-doubled)>>shift), int((u - doubled) & (1<<shift - 1))
	}
	page = bits.Len(u>>firstShift+1) - 1
	return page, i - (firstStripes<<page - firstStripes)
}

// alloc returns the ref of a zeroed stripe: a freed one if any, else the
// next.
func (p *groupState) alloc() int32 {
	if n := len(p.free); n > 0 {
		ref := p.free[n-1]
		p.free = p.free[:n-1]
		return ref
	}
	if page, _ := p.locate(p.used); page == len(p.counts) {
		stripes := firstStripes << min(page, p.doublings)
		p.counts = append(p.counts, make([]int64, stripes*p.width))
		p.accs = append(p.accs, make([]accum, stripes*p.width*p.naggs))
	}
	p.used++
	return int32(p.used)
}

// at returns the counts and accumulators of the stripe ref addresses.
func (p *groupState) at(ref int32) ([]int64, []accum) {
	page, off := p.locate(int(ref) - 1)
	n, a := p.width, p.width*p.naggs
	return p.counts[page][off*n : (off+1)*n : (off+1)*n], p.accs[page][off*a : (off+1)*a : (off+1)*a]
}

// release zeroes the stripe ref addresses, dropping its MIN/MAX multisets,
// and frees it.
func (p *groupState) release(ref int32) {
	n, accs := p.at(ref)
	clear(n)
	clear(accs)
	p.free = append(p.free, ref)
}

type accum struct {
	count int64
	sum   float64
	// vals is the ordered value multiset kept for MIN/MAX retraction:
	// O(log n) actual maintenance, while the modeled rescan cost charged
	// to Work.Rescan stays the full multiset scan.
	vals  *ordset.Multiset
	cur   float64
	curOK bool
}

// update applies one value with the given sign; it returns extra rescan work
// (the modeled size of the value multiset scanned after an extremum
// retraction — charged unchanged even though the ordered multiset finds the
// next extremum in O(log n)).
func (a *accum) update(spec plan.AggSpec, v value.Value, sign delta.Sign) int64 {
	s := int64(sign)
	switch spec.Func {
	case plan.AggCount:
		if spec.Arg == nil || !v.IsNull() {
			a.count += s
		}
		return 0
	case plan.AggSum, plan.AggAvg:
		if v.IsNull() {
			return 0
		}
		a.count += s
		a.sum += float64(s) * v.AsFloat()
		return 0
	case plan.AggMin, plan.AggMax:
		if v.IsNull() {
			return 0
		}
		if a.vals == nil {
			a.vals = ordset.New()
		}
		f := v.AsFloat()
		a.count += s
		cnt := a.vals.Add(f, s)
		if sign == delta.Insert {
			if !a.curOK || better(spec.Func, f, a.cur) {
				a.cur, a.curOK = f, true
			}
			return 0
		}
		// Deletion: if the current extremum was retracted, charge the
		// modeled rescan and read the next extremum off the multiset.
		if DebugSkipExtremumRescan {
			// Fault injection for the differential harness: keep the stale
			// extremum, reproducing the classic broken-MIN/MAX-IVM bug.
			return 0
		}
		if a.curOK && f == a.cur && cnt == 0 {
			rescan := int64(a.vals.Len())
			if spec.Func == plan.AggMin {
				a.cur, a.curOK = a.vals.Min()
			} else {
				a.cur, a.curOK = a.vals.Max()
			}
			return rescan
		}
		return 0
	default:
		return 0
	}
}

func better(f plan.AggFunc, a, b float64) bool {
	if f == plan.AggMin {
		return a < b
	}
	return a > b
}

// result returns the accumulator's current value.
func (a *accum) result(spec plan.AggSpec) value.Value {
	switch spec.Func {
	case plan.AggCount:
		return value.Int(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return value.Null
		}
		if spec.ResultKind() == value.KindInt {
			return value.Int(int64(a.sum))
		}
		return value.Float(a.sum)
	case plan.AggAvg:
		if a.count == 0 {
			return value.Null
		}
		return value.Float(a.sum / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if !a.curOK {
			return value.Null
		}
		if spec.ResultKind() == value.KindInt {
			return value.Int(int64(a.cur))
		}
		return value.Float(a.cur)
	default:
		return value.Null
	}
}

// slotAt returns the sidecar slot for a group ref, growing the dense side
// slice to cover refs other sharers allocated: at first to the index's
// group count, geometrically after that. Caller holds g.arr.mu.
func (g *aggExec) slotAt(ref int32) *aggSlot {
	if int(ref) >= len(g.side) {
		side := make([]aggSlot, max(g.arr.arena.Len(), 2*len(g.side)))
		copy(side, g.side)
		g.side = side
	}
	return &g.side[ref]
}

func (g *aggExec) push(_ int, tup []delta.Tuple, _ bool) {
	w := &g.w
	naggs := len(g.op.Aggs)
	w.Tuples += int64(len(tup))
	ch := &g.ch
	ch.Reset(tup)
	ch.InitBits(g.op.Queries)
	ch.NarrowNonEmpty()
	if len(ch.Sel) == 0 {
		return
	}
	// Group keys and aggregate arguments, column-at-a-time; the whole key
	// column set is hashed in one pass.
	for c, ev := range g.gbEvs {
		g.gbCols[c] = ev.Values(ch, ch.Sel)
	}
	for a, ev := range g.argEvs {
		if ev != nil {
			g.args[a] = ev.Values(ch, ch.Sel)
		}
	}
	if cap(g.hashes) < len(tup) {
		g.hashes = make([]uint64, len(tup))
	}
	hashes := g.hashes[:len(tup)]
	g.hasher.HashCols(g.gbCols, ch.Sel, hashes)
	// The chunk's index lookups run under the arrangement lock (other
	// aggregations may share it); sidecar state is private but cheap
	// enough to update inside the same critical section.
	g.arr.mu.Lock()
	for _, i := range ch.Sel {
		keyRow := g.keyRow[:0]
		for _, col := range g.gbCols {
			keyRow = append(keyRow, col[i])
		}
		g.keyRow = keyRow
		ref := g.arr.lookupOrCreate(hashes[i], keyRow)
		sl := g.slotAt(ref)
		if sl.stripe == 0 {
			sl.stripe = g.state.alloc()
			g.liveGroups++
		}
		ns, accs := g.state.at(sl.stripe)
		if sl.dirtyGen != g.gen {
			sl.dirtyGen = g.gen
			g.dirty = append(g.dirty, ref)
		}
		sign := tup[i].Sign
		for b := uint64(ch.Bits[i]); b != 0; b &^= b & (-b) {
			q := bits.TrailingZeros64(b)
			slot := g.qslot[q]
			ns[slot] += int64(sign)
			base := int(slot) * naggs
			for k, spec := range g.op.Aggs {
				var v value.Value
				if g.argEvs[k] != nil {
					v = g.args[k][i]
				}
				w.State++
				w.Rescan += accs[base+k].update(spec, v, sign)
			}
		}
	}
	g.arr.mu.Unlock()
}

// finish emits retractions and updated rows for every dirty group, in
// sorted key order so execution work is deterministic (index iteration
// order would otherwise vary the processing order of downstream deletes
// and with it the MIN/MAX rescan count), and starts the next execution.
// Key strings and key rows are read from the index entries, so emission
// holds the index lock, except around a hand-off: another sharer may be
// growing the index meanwhile.
func (g *aggExec) finish() {
	g.arr.mu.Lock()
	// Encoded keys order like the sorted map keys of a map-based index.
	arena := &g.arr.arena
	slices.SortFunc(g.dirty, func(a, b int32) int { return strings.Compare(arena.At(a).key, arena.At(b).key) })
	for _, ref := range g.dirty {
		sl := &g.side[ref]
		newOut := g.groupOutput(g.arr.arena.At(ref).keyRow, sl)
		if g.sameTuples(sl.lastOut, newOut) {
			continue
		}
		for _, t := range sl.lastOut {
			g.emit(delta.Tuple{Row: t.Row, Bits: t.Bits, Sign: delta.Delete})
		}
		// newOut rows alias pooled scratch; copy only now that the group is
		// known to have changed, since emitted rows are retained downstream
		// and as lastOut. The replaced lastOut's backing is reused (its
		// tuples were staged above); rows are carved from the emission
		// arena.
		retained := sl.lastOut[:0]
		if cap(retained) < len(newOut) {
			retained = g.tupArena.New(len(newOut))[:0]
		}
		for _, t := range newOut {
			row := g.rowArena.NewRow(len(t.Row))
			copy(row, t.Row)
			retained = append(retained, delta.Tuple{Row: row, Bits: t.Bits, Sign: t.Sign})
			g.emit(retained[len(retained)-1])
		}
		sl.lastOut = retained
		if ns, _ := g.state.at(sl.stripe); len(retained) == 0 && groupDead(ns) {
			// The group drained for every query this sharer serves: free
			// its stripe. The index entry itself is monotone — it stays in
			// the arrangement (other sharers may still hold it), and a
			// recreated group reuses the same ref with a fresh stripe.
			g.state.release(sl.stripe)
			sl.stripe, sl.lastOut = 0, nil
			g.liveGroups--
		}
	}
	g.arr.mu.Unlock()
	g.out.flush()
	g.dirty = g.dirty[:0]
	g.gen++
	g.ch.Reset(nil)
}

// emit stages one output tuple, handing a full chunk on with the index lock
// released.
func (g *aggExec) emit(t delta.Tuple) {
	if g.put(t) {
		g.arr.mu.Unlock()
		g.out.flush()
		g.arr.mu.Lock()
	}
}

// groupOutput computes the current output rows of the group keyed keyRow
// into pooled scratch: queries with equal aggregate values (grouping-key
// equality) cluster into one tuple carrying their combined bits. The
// returned tuples (and their rows) alias pooled buffers valid until the
// next call; callers clone what they retain.
func (g *aggExec) groupOutput(keyRow value.Row, sl *aggSlot) []delta.Tuple {
	clusters := g.clusters[:0]
	clRows := g.clRows
	naggs := len(g.op.Aggs)
	ns, accs := g.state.at(sl.stripe)
	for slot, q := range g.queries {
		if ns[slot] <= 0 {
			continue
		}
		row := g.rowBuf[:0]
		row = append(row, keyRow...)
		base := slot * naggs
		for i, spec := range g.op.Aggs {
			row = append(row, accs[base+i].result(spec))
		}
		g.rowBuf = row
		found := -1
		for ci := range clusters {
			if value.RowKeyEqual(clusters[ci].row, row) {
				found = ci
				break
			}
		}
		if found >= 0 {
			clusters[found].bits = clusters[found].bits.With(q)
			continue
		}
		if len(clRows) <= len(clusters) {
			clRows = append(clRows, nil)
		}
		cr := append(clRows[len(clusters)][:0], row...)
		clRows[len(clusters)] = cr
		clusters = append(clusters, clustered{row: cr, bits: mqo.Bit(q)})
	}
	g.clusters = clusters
	g.clRows = clRows
	out := g.tupBuf[:0]
	for _, c := range clusters {
		bits := applyMarkers(g.op, c.row, c.bits)
		if bits.Empty() {
			continue
		}
		out = append(out, delta.Tuple{Row: c.row, Bits: bits, Sign: delta.Insert})
	}
	g.tupBuf = out
	return out
}

// groupDead reports whether a group's counts say it exists for no query.
func groupDead(n []int64) bool {
	for _, c := range n {
		if c > 0 {
			return false
		}
	}
	return true
}

// sameTuples reports whether two emissions contain the same (row, bits)
// multisets under grouping-key row equality; steady-state executions
// allocate nothing.
func (g *aggExec) sameTuples(a, b []delta.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	used := g.cmpUsed[:0]
	for range a {
		used = append(used, false)
	}
	g.cmpUsed = used
	for i := range b {
		found := false
		for j := range a {
			if !used[j] && a[j].Bits == b[i].Bits && value.RowKeyEqual(a[j].Row, b[i].Row) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// stateSize returns the number of groups this executor holds state for.
func (g *aggExec) stateSize() int64 { return g.liveGroups }
