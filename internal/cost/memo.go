package cost

import (
	"math"
	"math/bits"
	"slices"

	"ishare/internal/hashtab"
	"ishare/internal/mqo"
)

// memoEntry is one memoized configuration: the subplan's private total and
// final work, as calibrated, and the output class its simulation produced.
type memoEntry struct {
	pT, pF float64
	out    int32
}

// memoTable is one subplan's memo, in two parts, both only ever appended to,
// so an id stays valid until the table is reset and nothing in a table is a
// pointer the collector has to follow.
//
// A configuration is keyed by what its simulation reads: the subplan's own
// pace and its children's output classes, in Subplan.Children order. An
// output class is one distinct output — its gross, net and delete share, its
// per-query counts and column Distincts, as calibrated — stored once however
// many configurations produce it. Two children's configurations that differ
// in pace but not in output so give their parent one key, and the parent is
// simulated once.
type memoTable struct {
	// configs maps a key's hash to its entry and classes an output row's
	// hash to its class. Each holds the first id of a hash; a later id whose
	// key or row differs from that one's is stored but not indexed.
	configs, classes hashtab.Table
	// slabs[k] holds entries [slab0*(2^k-1), slab0*(2^(k+1)-1)), and
	// outs[k] the rows of the classes with those ids. A slab is allocated
	// at its full size when its first id is added and filled in place, so
	// nothing is ever copied to grow the table.
	slabs []memoSlab
	outs  [][]float64
	// n counts the entries and nOut the classes.
	n, nOut int32
	// queries is the subplan's query set, which the per-query counts are
	// dense over; nq is its size. A class row is width floats: outHead
	// scalars, nq per-query counts, then the column Distincts. A key is
	// arity ids: the pace, then one class per child.
	queries          mqo.Bitset
	nq, width, arity int
}

// outHead is the number of scalars leading a class row: gross, net and
// delete share.
const outHead = 3

// slab0 is the size of a table's first slab; each next one is twice the
// size of the one before.
const slab0 = 16

// memoSlab holds the entries of one slab, each at its offset i within it,
// and in keys at [i*arity, (i+1)*arity) its key — what AdoptMemo re-keys an
// entry by.
type memoSlab struct {
	entries []memoEntry
	keys    []int32
}

// locate returns the slab id lives in and its offset there.
func locate(id int32) (k, i int) {
	k = bits.Len(uint(id/slab0+1)) - 1
	return k, int(id) - slab0*(1<<k-1)
}

func newMemoTable(s *mqo.Subplan, p *SimPlan) memoTable {
	nq := len(p.queries)
	return memoTable{
		queries: p.mask,
		nq:      nq,
		width:   outHead + nq + len(p.outShape()),
		arity:   1 + len(s.Children),
	}
}

// hashMul is the 64-bit golden-ratio multiplier that mixes each word into a
// hash.
const hashMul = 0x9E3779B97F4A7C15

func mix(h, x uint64) uint64 {
	h = (h ^ x) * hashMul
	return h ^ h>>29
}

// hashKey hashes a configuration key. hashKey and hashRow end by mixing in
// the length: one more round, so the last word's high bits reach the low
// bits a hashtab.Table picks its slot by.
func hashKey(key []int32) uint64 {
	h := uint64(hashMul)
	for _, x := range key {
		h = mix(h, uint64(uint32(x)))
	}
	return mix(h, uint64(len(key)))
}

// hashRow hashes an output row by its float bits.
func hashRow(row []float64) uint64 {
	h := uint64(hashMul)
	for _, x := range row {
		h = mix(h, math.Float64bits(x))
	}
	return mix(h, uint64(len(row)))
}

// sameBits reports whether two rows hold the same float bits: +0 and -0, or
// two NaN payloads, are different outputs.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// find returns the indexed entry keyed key and the key's hash, for index.
// ok is false on a miss, and on a hash collision with another key.
func (t *memoTable) find(key []int32) (id int32, h uint64, ok bool) {
	h = hashKey(key)
	id, ok = t.configs.Get(h)
	return id, h, ok && slices.Equal(t.keyOf(id), key)
}

// index makes entry id the one found by hash h, unless another entry has it.
func (t *memoTable) index(h uint64, id int32) {
	if _, taken := t.configs.Get(h); !taken {
		t.configs.Put(h, id)
	}
}

// add appends an entry with the given key and returns its id. It does not
// index the entry.
func (t *memoTable) add(key []int32, e memoEntry) int32 {
	id := t.n
	k, i := locate(id)
	if k == len(t.slabs) {
		c := slab0 << k
		t.slabs = append(t.slabs, memoSlab{entries: make([]memoEntry, c), keys: make([]int32, c*t.arity)})
	}
	t.n++
	s := &t.slabs[k]
	s.entries[i] = e
	copy(s.keys[i*t.arity:(i+1)*t.arity], key)
	return id
}

// intern returns the class whose row holds row's bits, adding one if none
// is indexed.
func (t *memoTable) intern(row []float64) int32 {
	h := hashRow(row)
	c, taken := t.classes.Get(h)
	if taken && sameBits(t.row(c), row) {
		return c
	}
	c = t.nOut
	k, i := locate(c)
	if k == len(t.outs) {
		t.outs = append(t.outs, make([]float64, (slab0<<k)*t.width))
	}
	t.nOut++
	copy(t.outs[k][i*t.width:(i+1)*t.width], row)
	if !taken {
		t.classes.Put(h, c)
	}
	return c
}

// entry returns entry id.
func (t *memoTable) entry(id int32) *memoEntry {
	k, i := locate(id)
	return &t.slabs[k].entries[i]
}

// keyOf returns entry id's key; read-only.
func (t *memoTable) keyOf(id int32) []int32 {
	k, i := locate(id)
	return t.slabs[k].keys[i*t.arity : (i+1)*t.arity]
}

// row returns class c's row; read-only.
func (t *memoTable) row(c int32) []float64 {
	k, i := locate(c)
	return t.outs[k][i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// view returns entry id's output as a simulator input. Its slices alias the
// table: read-only.
func (t *memoTable) view(id int32) stream {
	v := t.row(t.entry(id).out)
	return stream{Gross: v[0], Net: v[1], DeleteShare: v[2], Queries: t.queries,
		PerQuery: v[outHead : outHead+t.nq : outHead+t.nq], Distinct: v[outHead+t.nq:]}
}

// reset empties the table, keeping its slabs and index tables.
func (t *memoTable) reset() {
	t.configs.Reset()
	t.classes.Reset()
	t.n, t.nOut = 0, 0
}
