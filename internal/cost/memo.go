package cost

import "ishare/internal/mqo"

// keyKids is the number of child entry ids a memoKey holds inline.
const keyKids = 3

// memoKey names a subplan's private pace configuration — its own pace and
// every descendant's — by hash-consing: its own pace and the entry ids its
// children's configurations have in their own memo tables, in
// Subplan.Children order. It is built in O(children) and holds no pointer.
type memoKey struct {
	pace int32
	kids [keyKids]int32
}

// memoEntry is one memoized simulation, as calibrated: the subplan's private
// total and final work and its output's scalars. The output's per-query
// counts and column Distincts live in the table's floats.
type memoEntry struct {
	pT, pF                  float64
	gross, net, deleteShare float64
}

// memoTable is one subplan's memo. Entries are only ever appended, so an
// entry id stays valid until the table is reset, and nothing in a table is a
// pointer the collector has to follow.
type memoTable struct {
	// index maps a configuration's key to its entry; spill interns the
	// surplus child ids of a subplan with more than keyKids children (see
	// foldKids), fold is foldKids' scratch.
	index, spill map[memoKey]int32
	fold         []int32
	entries      []memoEntry
	// keys holds entry i's own pace and child entry ids, unfolded, at
	// [i*arity, (i+1)*arity): what AdoptMemo re-keys an entry by.
	keys []int32
	// floats holds entry i's output per-query counts, then its column
	// Distincts, at [i*width, (i+1)*width).
	floats []float64
	// queries is the subplan's query set, which the per-query counts are
	// dense over; nq is its size.
	queries          mqo.Bitset
	nq, width, arity int
}

func newMemoTable(s *mqo.Subplan, p *SimPlan) memoTable {
	nq := len(p.queries)
	return memoTable{
		index:   make(map[memoKey]int32),
		queries: p.mask,
		nq:      nq,
		width:   nq + len(p.outShape()),
		arity:   1 + len(s.Children),
	}
}

// key returns the memo key of the configuration with own pace pace whose
// children's configurations are the entries kids.
func (t *memoTable) key(pace int, kids []int32) memoKey {
	if len(kids) > keyKids {
		kids = t.foldKids(kids)
	}
	k := memoKey{pace: int32(pace)}
	copy(k.kids[:], kids)
	return k
}

// foldKids shortens the child entry ids of a subplan with more children than
// a key holds: while too many are left, the last keyKids become one id of
// the spill table, interned first come, first served. Interning is
// one-to-one and a subplan's child count fixed, so the fold is one-to-one.
func (t *memoTable) foldKids(kids []int32) []int32 {
	if t.spill == nil {
		t.spill = make(map[memoKey]int32)
	}
	f := append(t.fold[:0], kids...)
	for len(f) > keyKids {
		var tail memoKey
		copy(tail.kids[:], f[len(f)-keyKids:])
		id, ok := t.spill[tail]
		if !ok {
			id = int32(len(t.spill))
			t.spill[tail] = id
		}
		f = append(f[:len(f)-keyKids], id)
	}
	t.fold = f
	return f
}

// add appends an entry for the configuration with own pace pace and child
// entries kids, with the output's per-query counts and column Distincts,
// and returns its id. It does not index the entry.
func (t *memoTable) add(pace int, kids []int32, e memoEntry, perQuery, distinct []float64) int32 {
	id := int32(len(t.entries))
	t.entries = append(t.entries, e)
	t.keys = append(append(t.keys, int32(pace)), kids...)
	t.floats = append(append(t.floats, perQuery...), distinct...)
	return id
}

// view returns entry id's output as a simulator input. Its slices alias the
// table: read-only.
func (t *memoTable) view(id int32) stream {
	e := &t.entries[id]
	off := int(id) * t.width
	v := t.floats[off : off+t.width : off+t.width]
	return stream{Gross: e.gross, Net: e.net, DeleteShare: e.deleteShare, Queries: t.queries,
		PerQuery: v[:t.nq:t.nq], Distinct: v[t.nq:]}
}

// reset empties the table, keeping its memory.
func (t *memoTable) reset() {
	clear(t.index)
	clear(t.spill)
	t.entries, t.keys, t.floats = t.entries[:0], t.keys[:0], t.floats[:0]
}

// adopt re-keys entry e of src, a table of another model for the same
// subplan, into t, given e's child entries translated into t's children's
// ids, and returns the id the entry has in t: the existing one if t already
// holds the configuration.
func (t *memoTable) adopt(src *memoTable, e int32, kids []int32) int32 {
	pace := int(src.keys[int(e)*src.arity])
	k := t.key(pace, kids)
	if id, ok := t.index[k]; ok {
		return id
	}
	v := src.view(e)
	id := t.add(pace, kids, src.entries[e], v.PerQuery, v.Distinct)
	t.index[k] = id
	return id
}
