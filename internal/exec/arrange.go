package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"ishare/internal/delta"
	"ishare/internal/hashtab"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// This file is the arrangement registry: "arrange once, probe many" for the
// two kinds of indexed operator state the executor keeps — join build sides
// and aggregation group indexes. An arrangement is identified by
// mqo.ArrangeKey (relation lineage, key columns, kind); every executor
// whose key renders to the same signature attaches to one physical
// arrangement and probes it through its own handle. Sharing is purely
// physical: each handle carries its own stream position and a bitset
// remapping into the arrangement's canonical query space, so results and
// modeled Work are bit-identical whether an arrangement has one holder or
// twenty — only the actual build work and resident memory change.

// arrHeader is the registry-facing identity of an arrangement.
type arrHeader struct {
	id   int64
	sig  string // "" while unregistered or registered private
	agg  bool   // which registry map sig lives in
	refs int    // attached handles
}

type arrAny interface{ header() *arrHeader }

func (h *arrHeader) header() *arrHeader { return h }

// Registry owns every arrangement of one Runner, shared or private, and
// refcounts them against the live plan: executors attach on construction
// (Runner build or Graft) and release when a graft drops their subplan.
// A released arrangement whose refcount hits zero is tombstoned, not freed
// — it stays allocated until the next window seal so anything still
// holding chunk-scoped pointers into it finishes the window — and is
// reclaimed by Sweep. Scans' truth columns (truth.go) live here under the
// same rules, outside the arrangement accounting.
type Registry struct {
	mu     sync.Mutex
	share  bool
	nextID int64
	joins  map[string]*joinArr
	aggs   map[string]*aggArr
	live   map[int64]arrAny
	tombs  []arrAny

	built          int64
	sharedAttaches int64
	freed          int64
	swept          int64

	truths                      map[string]*truthCol
	truthLive                   map[*truthCol]struct{}
	truthTombs                  []*truthCol
	truthEvaluated, truthServed atomic.Int64
}

func NewRegistry(share bool) *Registry {
	return &Registry{
		share:     share,
		joins:     make(map[string]*joinArr),
		aggs:      make(map[string]*aggArr),
		live:      make(map[int64]arrAny),
		truths:    make(map[string]*truthCol),
		truthLive: make(map[*truthCol]struct{}),
	}
}

// SetShare flips sharing for attaches from now on. Already-shared
// arrangements keep their holders; the flag only decides whether the next
// attach may join an existing arrangement or register a new one.
func (r *Registry) SetShare(v bool) {
	r.mu.Lock()
	r.share = v
	r.mu.Unlock()
}

func (r *Registry) register(a arrAny, key mqo.ArrangeKey, agg bool) {
	h := a.header()
	h.id = r.nextID
	r.nextID++
	h.refs = 1
	r.built++
	r.live[h.id] = a
	if r.share && key.Sig != "" {
		h.sig, h.agg = key.Sig, agg
		if agg {
			r.aggs[key.Sig] = a.(*aggArr)
		} else {
			r.joins[key.Sig] = a.(*joinArr)
		}
	}
}

// attachJoin returns the arrangement for one join build side, reusing a
// live arrangement when sharing is on and the key is shareable.
func (r *Registry) attachJoin(key mqo.ArrangeKey) *joinArr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.share && key.Sig != "" {
		if a, ok := r.joins[key.Sig]; ok {
			a.refs++
			r.sharedAttaches++
			return a
		}
	}
	a := &joinArr{}
	r.register(a, key, false)
	return a
}

// attachAgg returns the group-index arrangement for an aggregation.
func (r *Registry) attachAgg(key mqo.ArrangeKey) *aggArr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.share && key.Sig != "" {
		if a, ok := r.aggs[key.Sig]; ok {
			a.refs++
			r.sharedAttaches++
			return a
		}
	}
	a := &aggArr{}
	r.register(a, key, true)
	return a
}

// release drops one handle. The last holder tombstones the arrangement:
// it leaves the signature maps immediately (a later attach builds fresh)
// but is only reclaimed at the next Sweep.
func (r *Registry) release(a arrAny) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := a.header()
	h.refs--
	if h.refs > 0 {
		return
	}
	delete(r.live, h.id)
	if h.sig != "" {
		if h.agg {
			delete(r.aggs, h.sig)
		} else {
			delete(r.joins, h.sig)
		}
	}
	r.freed++
	r.tombs = append(r.tombs, a)
}

// Sweep reclaims tombstoned arrangements and truth columns and returns how
// many arrangements it reclaimed; the runner calls it when a window seals, so
// expiry is deferred past any in-flight window.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.tombs)
	r.tombs, r.truthTombs = nil, nil
	r.swept += int64(n)
	return n
}

// ArrangeStats is a point-in-time accounting of the registry. Live/
// Handles/MultiUse/Entries describe the current population; Built/
// SharedAttaches/Freed/Swept are monotone lifetime counters.
type ArrangeStats struct {
	// Live arrangements currently refcounted; Handles is the sum of their
	// refcounts, MultiUse how many have more than one holder.
	Live, Handles, MultiUse int
	// Entries counts resident index entries (join rows + agg groups)
	// across live arrangements — the resident-memory proxy that drops
	// when subplans share.
	Entries int64
	// LongestChain is the most join entries under one key hash — a skewed
	// build side shows here — and IndexedEntries how many identity-index
	// keys such long chains hold (joinArr.idx).
	LongestChain   int32
	IndexedEntries int64
	// Built counts arrangements ever constructed; SharedAttaches counts
	// attaches served by an existing arrangement instead of a build.
	Built, SharedAttaches int64
	// Freed counts arrangements whose last holder released; Swept how
	// many tombstones were reclaimed; Pending is Freed-Swept still
	// awaiting a window seal.
	Freed, Swept int64
	Pending      int
}

// Stats must not race running executions: call it between windows or
// after Run returns.
func (r *Registry) Stats() ArrangeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ArrangeStats{
		Live:           len(r.live),
		Built:          r.built,
		SharedAttaches: r.sharedAttaches,
		Freed:          r.freed,
		Swept:          r.swept,
		Pending:        len(r.tombs),
	}
	for _, a := range r.live {
		h := a.header()
		st.Handles += h.refs
		if h.refs > 1 {
			st.MultiUse++
		}
		switch arr := a.(type) {
		case *joinArr:
			st.Entries += int64(arr.arena.Len())
			st.LongestChain = max(st.LongestChain, arr.longest)
			st.IndexedEntries += int64(arr.idx.Len())
		case *aggArr:
			st.Entries += int64(arr.arena.Len())
		}
	}
	return st
}

// checkHandles verifies the refcount invariant against an externally
// counted number of live executor handles, arrangement and truth-column
// handles together: every live arrangement and column is held (refs >= 1),
// the total matches, the signature maps only point at live entries, and
// tombstone accounting balances.
func (r *Registry) checkHandles(handles int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for id, a := range r.live {
		h := a.header()
		if h.refs < 1 {
			return fmt.Errorf("arrangement %d live with %d refs", id, h.refs)
		}
		total += h.refs
	}
	for c := range r.truthLive {
		if c.refs < 1 {
			return fmt.Errorf("truth column %q live with %d refs", c.key, c.refs)
		}
		total += c.refs
	}
	if total != handles {
		return fmt.Errorf("registry holds %d refs, executors hold %d handles", total, handles)
	}
	for sig, a := range r.joins {
		if _, ok := r.live[a.id]; !ok || a.sig != sig {
			return fmt.Errorf("join signature map entry %q not live", sig)
		}
	}
	for sig, a := range r.aggs {
		if _, ok := r.live[a.id]; !ok || a.sig != sig {
			return fmt.Errorf("agg signature map entry %q not live", sig)
		}
	}
	for key, c := range r.truths {
		if _, ok := r.truthLive[c]; !ok || c.key != key {
			return fmt.Errorf("truth column map entry %q not live", key)
		}
	}
	if r.freed-r.swept != int64(len(r.tombs)) {
		return fmt.Errorf("tombstone imbalance: freed %d, swept %d, pending %d", r.freed, r.swept, len(r.tombs))
	}
	return nil
}

// bitMap remaps query bits between a sharer's global numbering and the
// arrangement's canonical slots; nil means the identity (private
// arrangements, or a canonical order that already matches).
type bitMap []int32

func (m bitMap) apply(b mqo.Bitset) mqo.Bitset {
	if m == nil {
		return b
	}
	var out mqo.Bitset
	for x := uint64(b); x != 0; x &= x - 1 {
		out = out.Union(mqo.Bit(int(m[bits.TrailingZeros64(x)])))
	}
	return out
}

// newBitMaps builds the to-canonical and from-canonical maps for a
// sharer whose slot order is order (order[slot] = global query id).
func newBitMaps(order []int) (to, from bitMap) {
	identity := true
	for slot, q := range order {
		if slot != q {
			identity = false
			break
		}
	}
	if identity {
		return nil, nil
	}
	to = make(bitMap, mqo.MaxQueries)
	from = make(bitMap, len(order))
	for slot, q := range order {
		to[q] = int32(slot)
		from[slot] = int32(q)
	}
	return to, from
}

// countVer is one version of an entry's multiplicity: count is visible to
// handles whose stream position is strictly past pos.
type countVer struct {
	pos   int64
	count int32
}

// arrEntry is one distinct (row, canonical bits) in a join arrangement.
// Entries are monotone: once allocated they are never removed, moved or
// reordered — a multiplicity that returns to zero leaves a tombstone in
// place, and a later matching delta revives it — so chain order and arena
// refs are stable no matter how many sharers write at different paces.
// hist indexes the arrangement's side arena of multiplicity histories, -1
// until the entry's second change materializes one; until then
// created+count describe the single version. head is the entry's chain
// head; tail and n are the chain's last entry and length, kept on the head
// only, so an append never walks.
type arrEntry struct {
	row         value.Row
	bits        mqo.Bitset
	created     int64
	count, next int32
	hist, head  int32
	tail, n     int32
}

// indexThreshold is the chain length past which a chain's entries enter the
// identity index. Short chains (two thirds of a TPC-H job's entries) are
// cheaper to walk than to hash and index; 8 measured best (DESIGN.md §6h).
// A variable only so tests can force both regimes; nothing else writes it.
var indexThreshold int32 = 8

// identityHash keys the identity index: the row's Equal-consistent hash
// mixed with the canonical bits and the chain's key hash. Rows that are
// Equal under different join-key hashes (a computed key can tell Int(0)
// from Float(0)) belong to different chains and must not meet. A variable
// so a test can force collisions.
var identityHash = func(row value.Row, cb mqo.Bitset, h uint64) (uint64, bool) {
	rh, ok := value.IdentityHash(row)
	return rh ^ (uint64(cb)+h)*0xD6E8FEB86659FD93, ok
}

// joinArr is a shared join build side: a multiset of (row, bits) keyed by
// join-key hash, with multi-version multiplicities so differently-paced
// holders each see exactly the prefix of the restricted delta stream they
// have applied. pos counts survivors physically applied; live counts
// entries with a non-zero current multiplicity. mu serializes everything —
// wave-parallel subplans sharing one arrangement apply and probe under it.
//
// idx is the identity index: for every entry of a chain longer than
// indexThreshold, identityHash → the first such entry in chain order, so a
// state update on a skewed key is one lookup and one verifying comparison
// instead of a walk. It is an accelerator only: a verify miss (64-bit
// collision, or the first-in-chain-order entry being another one) falls
// back to the walk, and walkOnly retires it for good once any row proves
// unhashable.
type joinArr struct {
	arrHeader
	mu       sync.Mutex
	tab, idx hashtab.Table
	arena    hashtab.Arena[arrEntry]
	hists    hashtab.Arena[[]countVer]
	pos      int64
	live     int64
	longest  int32
	walkOnly bool
	walked   int64 // entries compared by walk; read by tests only
}

// countAt returns the multiplicity of e visible to a handle at stream
// position pos: the count after the last change at a position < pos.
func (a *joinArr) countAt(e *arrEntry, pos int64) int32 {
	if e.hist < 0 {
		if pos > e.created {
			return e.count
		}
		return 0
	}
	hist := *a.hists.At(e.hist)
	lo, hi := 0, len(hist)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hist[mid].pos < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return hist[lo-1].count
}

// apply advances one handle past survivor t. If another holder already
// applied this position the physical work is skipped — that is the entire
// sharing win — but the modeled state work (the return value) is charged
// either way, keeping Work counters independent of who built what.
func (a *joinArr) apply(pos *int64, to bitMap, t delta.Tuple, h uint64) int64 {
	p := *pos
	*pos = p + 1
	if p < a.pos {
		return 1
	}
	a.pos = p + 1
	cb := to.apply(t.Bits)
	d := int32(t.Sign)
	headRef, ok := a.tab.Get(h)
	var id uint64 // t's identity hash, when vacant: idx holds nothing under it
	var vacant bool
	if ok {
		var e *arrEntry
		if e, id, vacant = a.find(headRef, t.Row, cb, h); e != nil {
			a.bump(e, p, d)
			return 1
		}
	}
	// A delete with no prior insert records a negative multiplicity so a
	// late matching insert cancels it — the multiset algebra stays closed
	// under any delta order.
	ref := a.arena.Alloc()
	if !ok {
		headRef = ref
		a.tab.Put(h, ref)
	}
	head := a.arena.At(headRef)
	*a.arena.At(ref) = arrEntry{row: t.Row, bits: cb, created: p, count: d, next: -1, hist: -1, head: headRef}
	if ok {
		a.arena.At(head.tail).next = ref
	}
	head.tail = ref
	head.n++
	a.live++
	a.longest = max(a.longest, head.n)
	if vacant {
		a.idx.Put(id, ref)
	} else if head.n > indexThreshold && !a.walkOnly {
		// Crossing the threshold enters the whole chain, in chain order.
		if head.n-1 == indexThreshold {
			ref = headRef
		}
		for ; ref >= 0 && !a.walkOnly; ref = a.arena.At(ref).next {
			a.index(ref, h)
		}
	}
	return 1
}

// find returns the first entry of the chain at headRef identical to
// (row, cb), or nil: through the identity index when the chain is in it,
// else — and whenever the index cannot answer exactly — by walking. vacant
// reports an index miss: no such entry, and id is free for the one the
// caller appends.
func (a *joinArr) find(headRef int32, row value.Row, cb mqo.Bitset, h uint64) (e *arrEntry, id uint64, vacant bool) {
	if a.arena.At(headRef).n > indexThreshold && !a.walkOnly {
		if hash, ok := identityHash(row, cb, h); ok {
			ref, hit := a.idx.Get(hash)
			if !hit {
				return nil, hash, true
			}
			if e := a.arena.At(ref); e.head == headRef && e.bits == cb && e.row.Equal(row) {
				return e, 0, false
			}
		}
	}
	for ref := headRef; ref >= 0; {
		e := a.arena.At(ref)
		a.walked++
		if e.bits == cb && e.row.Equal(row) {
			return e, 0, false
		}
		ref = e.next
	}
	return nil, 0, false
}

// index enters one entry of a long chain, keeping the earlier entry when
// two share a hash: Equal is not transitive across kinds (Int(2^53) and
// Int(2^53+1) both equal Float(2^53)), and the walk matches the first.
func (a *joinArr) index(ref int32, h uint64) {
	e := a.arena.At(ref)
	id, ok := identityHash(e.row, e.bits, h)
	if !ok {
		a.walkOnly, a.idx = true, hashtab.Table{}
		return
	}
	if _, dup := a.idx.Get(id); !dup {
		a.idx.Put(id, ref)
	}
}

func (a *joinArr) bump(e *arrEntry, p int64, d int32) {
	if e.hist < 0 {
		e.hist = a.hists.Alloc()
		*a.hists.At(e.hist) = append(make([]countVer, 0, 2), countVer{pos: e.created, count: e.count})
	}
	old := e.count
	e.count += d
	hist := a.hists.At(e.hist)
	*hist = append(*hist, countVer{pos: p, count: e.count})
	if old == 0 && e.count != 0 {
		a.live++
	} else if old != 0 && e.count == 0 {
		a.live--
	}
}

// lockArrs acquires both sides' arrangements for one probe chunk, in id
// order so two joins sharing the same pair cannot deadlock; a self-join
// whose sides share one arrangement locks it once.
func lockArrs(a, b *joinArr) {
	if a == b {
		a.mu.Lock()
		return
	}
	if a.id < b.id {
		a.mu.Lock()
		b.mu.Lock()
	} else {
		b.mu.Lock()
		a.mu.Lock()
	}
}

func unlockArrs(a, b *joinArr) {
	a.mu.Unlock()
	if a != b {
		b.mu.Unlock()
	}
}

// sharedGroup is one group key in a shared aggregation index. The index
// maps key rows to stable arena refs; everything per-query — counts,
// accumulators, emitted rows — lives in each sharer's dense sidecar under
// the same ref. Groups are monotone like join entries: refs are never
// freed, so a sidecar indexed by ref can never alias a recycled group.
type sharedGroup struct {
	key    string
	hash   uint64
	next   int32
	keyRow value.Row
}

// aggArr is a shared aggregation group index.
type aggArr struct {
	arrHeader
	mu       sync.Mutex
	tab      hashtab.Table
	arena    hashtab.Arena[sharedGroup]
	keyArena vec.RowArena
	intern   vec.Interner
	keyBuf   []byte
}

// lookupOrCreate returns the stable ref for keyRow, allocating the group
// on first touch by any sharer. Caller holds a.mu.
func (a *aggArr) lookupOrCreate(h uint64, keyRow value.Row) int32 {
	head, ok := a.tab.Get(h)
	if ok {
		for ref := head; ref >= 0; {
			gs := a.arena.At(ref)
			if value.RowKeyEqual(gs.keyRow, keyRow) {
				return ref
			}
			ref = gs.next
		}
	}
	ref := a.arena.Alloc()
	gs := a.arena.At(ref)
	a.keyBuf = value.AppendKey(a.keyBuf[:0], keyRow)
	gs.key = a.intern.Intern(a.keyBuf)
	gs.hash = h
	gs.next = -1
	kr := a.keyArena.NewRow(len(keyRow))
	copy(kr, keyRow)
	gs.keyRow = kr
	if ok {
		gs.next = head
	}
	a.tab.Put(h, ref)
	return ref
}
