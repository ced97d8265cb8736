package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// refArr is the naive reference multiset the property test holds joinArr
// to: per key hash, the distinct (row, bits) in first-seen order, each with
// its whole multiplicity history, found by comparing every entry.
type refArr struct {
	chains map[uint64][]*refEntry
	live   int64
}

type refEntry struct {
	row  value.Row
	bits mqo.Bitset
	vers []countVer
}

func (r *refArr) apply(p int64, d propDelta) {
	for _, e := range r.chains[d.h] {
		if e.bits == d.cb && e.row.Equal(d.row) {
			old := e.vers[len(e.vers)-1].count
			e.vers = append(e.vers, countVer{pos: p, count: old + int32(d.sign)})
			if old == 0 {
				r.live++
			} else if old+int32(d.sign) == 0 {
				r.live--
			}
			return
		}
	}
	r.chains[d.h] = append(r.chains[d.h], &refEntry{row: d.row, bits: d.cb, vers: []countVer{{pos: p, count: int32(d.sign)}}})
	r.live++
}

func (e *refEntry) countAt(pos int64) (c int32) {
	for _, v := range e.vers {
		if v.pos < pos {
			c = v.count
		}
	}
	return c
}

// propDelta is one delta of the restricted stream in canonical terms.
type propDelta struct {
	row  value.Row
	cb   mqo.Bitset
	sign delta.Sign
	h    uint64
}

// skewedStream draws n deltas over keys join keys, Zipf-skewed so a few
// keys hold most rows. About half the deltas revisit an earlier row (as a
// fresh slice, so identity is by value): duplicates, deletes, deletes that
// drive a count to zero and inserts that revive it; a tenth delete a row
// never inserted. Keys share their hash in threes, so chains mix join keys.
// Payloads come from [0, domain). weird adds the values Equal treats
// specially: Int/Float twins, ±0, and (nan) float NaNs.
func skewedStream(rng *rand.Rand, n, keys, domain int, weird, nan bool) []propDelta {
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(keys-1))
	strs := []string{"", "a", "ab", "b"}
	fresh := func() value.Row {
		k := int64(zipf.Uint64())
		row := value.Row{value.Int(k), value.Int(int64(rng.Intn(domain))), value.Str(strs[rng.Intn(len(strs))]), value.Float(float64(rng.Intn(8)) / 4)}
		if weird {
			switch rng.Intn(6) {
			case 0:
				row[1] = value.Float(float64(row[1].I))
			case 1:
				row[3] = value.Float(math.Copysign(0, -1))
			case 2:
				row[3] = value.Int(int64(row[3].F))
			case 3:
				if nan {
					row[3] = value.Float(math.NaN())
				}
			}
		}
		return row
	}
	out := make([]propDelta, 0, n)
	for len(out) < n {
		d := propDelta{sign: delta.Insert, cb: mqo.Bitset(1 + rng.Intn(7))}
		switch x := rng.Intn(10); {
		case x < 5 && len(out) > 0:
			prev := out[rng.Intn(len(out))]
			d.row, d.cb = prev.row.Clone(), prev.cb
			if rng.Intn(2) == 0 {
				d.sign = delta.Delete
			}
		case x == 5:
			d.row, d.sign = fresh(), delta.Delete
		default:
			d.row = fresh()
		}
		d.h = uint64(d.row[0].I) / 3 * 3
		out = append(out, d)
	}
	return out
}

// propHandle is one sharer: its stream position and the slot order its
// global query ids map to canonical bits through.
type propHandle struct {
	pos      int64
	to, from bitMap
}

// driveArr feeds stream to one joinArr through two handles with different
// bit remaps, advancing a randomly chosen one each step so that each leads
// at times, and the reference alongside. After every delta it compares the
// returned state work, live, pos, and — on the chain the delta touched, and
// on every chain each 1024 steps and at the end — chain order, head
// bookkeeping and countAt at both handles' positions for every entry.
// mutate, when set, may corrupt the arrangement before each physical apply.
func driveArr(seed int64, stream []propDelta, mutate func(a *joinArr, next propDelta)) error {
	rng := rand.New(rand.NewSource(seed))
	a := &joinArr{}
	ref := &refArr{chains: map[uint64][]*refEntry{}}
	hs := [2]*propHandle{{}, {}}
	hs[0].to, hs[0].from = newBitMaps([]int{2, 0, 1})
	hs[1].to, hs[1].from = newBitMaps([]int{1, 2, 0})
	n := int64(len(stream))

	checkChain := func(h uint64) error {
		want := ref.chains[h]
		r, ok := a.tab.Get(h)
		if !ok {
			r = -1
		}
		headRef, last := r, int32(-1)
		for i := 0; r >= 0; i++ {
			e := a.arena.At(r)
			if i >= len(want) {
				return fmt.Errorf("chain %d: longer than the reference's %d entries", h, len(want))
			}
			if w := want[i]; &e.row[0] != &w.row[0] || e.bits != w.bits {
				return fmt.Errorf("chain %d entry %d: holds (%v, %b), reference (%v, %b)", h, i, e.row, e.bits, w.row, w.bits)
			}
			if e.head != headRef {
				return fmt.Errorf("chain %d entry %d: head %d, want %d", h, i, e.head, headRef)
			}
			for _, hd := range hs {
				if got, w := a.countAt(e, hd.pos), want[i].countAt(hd.pos); got != w {
					return fmt.Errorf("chain %d entry %d (%v): countAt(%d) = %d, reference %d", h, i, e.row, hd.pos, got, w)
				}
			}
			last, r = r, e.next
		}
		if headRef < 0 {
			if len(want) != 0 {
				return fmt.Errorf("chain %d: missing, reference holds %d entries", h, len(want))
			}
			return nil
		}
		if head := a.arena.At(headRef); int(head.n) != len(want) || head.tail != last {
			return fmt.Errorf("chain %d: head says %d entries ending at %d, chain has %d ending at %d (reference %d)",
				h, head.n, head.tail, len(want), last, len(want))
		}
		return nil
	}
	checkAll := func() error {
		for h := range ref.chains {
			if err := checkChain(h); err != nil {
				return err
			}
		}
		return nil
	}

	for step := 0; hs[0].pos < n || hs[1].pos < n; step++ {
		hd := hs[rng.Intn(2)]
		if rng.Intn(64) == 0 { // now and then let one handle run far ahead
			for k := rng.Intn(200); k > 0 && hd.pos < n; k-- {
				step++
				if err := stepArr(a, ref, hd, stream, mutate); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
			}
		}
		if hd.pos >= n {
			continue
		}
		d := stream[hd.pos]
		if err := stepArr(a, ref, hd, stream, mutate); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if err := checkChain(d.h); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if step%1024 == 0 {
			if err := checkAll(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
	}
	return checkAll()
}

// stepArr advances hd one position in both the arrangement and (when the
// position is new) the reference, and compares the scalars.
func stepArr(a *joinArr, ref *refArr, hd *propHandle, stream []propDelta, mutate func(*joinArr, propDelta)) error {
	d := stream[hd.pos]
	p := hd.pos
	if p == a.pos {
		if mutate != nil {
			mutate(a, d)
		}
		ref.apply(p, d)
	}
	t := delta.Tuple{Row: d.row, Bits: hd.from.apply(d.cb), Sign: d.sign}
	if w := a.apply(&hd.pos, hd.to, t, d.h, false); w != 1 {
		return fmt.Errorf("apply charged %d state work, want 1", w)
	}
	if hd.pos != p+1 || a.pos < hd.pos {
		return fmt.Errorf("positions: handle %d -> %d, arrangement %d", p, hd.pos, a.pos)
	}
	if a.live != ref.live {
		return fmt.Errorf("live = %d, reference %d", a.live, ref.live)
	}
	return nil
}

// setRegime forces the identity-index threshold for one test.
func setRegime(t *testing.T, threshold int32) {
	old := indexThreshold
	indexThreshold = threshold
	t.Cleanup(func() { indexThreshold = old })
}

// TestArrangeMatchesReference is the property test of the join state
// update: seeded skewed streams (5–25 keys, 20k deltas, chains thousands
// long) at the shipped threshold, and shorter ones with every entry
// indexed and with the index off.
func TestArrangeMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name      string
		threshold int32
		seeds, n  int
	}{
		{"threshold=default", indexThreshold, 2, 20000},
		{"threshold=0", 0, 2, 6000},
		{"threshold=inf", math.MaxInt32, 1, 6000},
	} {
		t.Run(c.name, func(t *testing.T) {
			setRegime(t, c.threshold)
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				stream := skewedStream(rng, c.n, 5+rng.Intn(21), 4000, seed%2 == 0, false)
				if err := driveArr(seed, stream, nil); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestArrangeNaNWalks pins the one case no identity hash can serve: a
// float NaN compares "equal" to every number under Row.Equal, so a row
// holding one matches whatever the walk meets first. Such rows must take
// the walk — here with every chain indexed from its first entry — and the
// arrangement must stay entry-for-entry identical to the reference, which
// only ever walks.
func TestArrangeNaNWalks(t *testing.T) {
	setRegime(t, 0)
	rng := rand.New(rand.NewSource(7))
	stream := skewedStream(rng, 4000, 9, 5, true, true)
	if err := driveArr(7, stream, nil); err != nil {
		t.Fatal(err)
	}
	nan := value.Row{value.Int(1), value.Float(math.NaN())}
	if !nan.Equal(value.Row{value.Int(1), value.Float(3)}) {
		t.Fatal("Row.Equal no longer matches NaN against a number; the walk-only route can go")
	}
	if _, ok := value.IdentityHash(nan); ok {
		t.Error("IdentityHash hashed a row holding NaN")
	}
}

// TestArrangeFirstMatchWins pins the index's keep-first rule. Row.Equal is
// not transitive across kinds: Int(2^53) and Int(2^53+1) are two entries,
// yet Float(2^53) equals both, and the walk bumps whichever came first.
func TestArrangeFirstMatchWins(t *testing.T) {
	setRegime(t, 0)
	row := func(v value.Value) propDelta {
		return propDelta{row: value.Row{value.Int(1), v}, cb: 1, sign: delta.Insert, h: 1}
	}
	stream := []propDelta{row(value.Int(1 << 53)), row(value.Int(1<<53 + 1)), row(value.Float(1 << 53)), row(value.Int(1<<53 + 1))}
	if err := driveArr(1, stream, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArrangeForcedCollisions gives every (row, bits) one identity hash:
// the index then answers for a single entry and every other lookup is a
// verify miss that must fall back to the walk.
func TestArrangeForcedCollisions(t *testing.T) {
	old := identityHash
	identityHash = func(value.Row, mqo.Bitset, uint64) (uint64, bool) { return 42, true }
	defer func() { identityHash = old }()
	for _, threshold := range []int32{0, 8} {
		setRegime(t, threshold)
		rng := rand.New(rand.NewSource(11))
		if err := driveArr(11, skewedStream(rng, 5000, 7, 4000, true, false), nil); err != nil {
			t.Fatalf("threshold %d: %v", threshold, err)
		}
	}
}

// TestArrangePropertyHasTeeth is the mutation check: the property test
// must fail when an append forgets the chain's tail, and when an entry of a
// long chain never reaches the identity index.
func TestArrangePropertyHasTeeth(t *testing.T) {
	stream := skewedStream(rand.New(rand.NewSource(3)), 6000, 6, 4000, false, false)
	if err := driveArr(3, stream, nil); err != nil {
		t.Fatalf("unmutated run: %v", err)
	}
	longChain := func(a *joinArr, next propDelta) (int32, *arrEntry) {
		ref, ok := a.tab.Get(next.h)
		if !ok || a.arena.At(ref).n <= indexThreshold {
			return -1, nil
		}
		return ref, a.arena.At(ref)
	}
	done := false
	dropTail := func(a *joinArr, next propDelta) {
		if ref, head := longChain(a, next); head != nil && !done {
			head.tail, done = ref, true // as if no append since the first had set it
		}
	}
	if err := driveArr(3, stream, dropTail); err == nil || !done {
		t.Errorf("dropped tail pointer went unnoticed (mutated=%v)", done)
	}
	done = false
	dropIndex := func(a *joinArr, next propDelta) {
		ref, head := longChain(a, next)
		if head == nil || done {
			return
		}
		if e, _, _ := a.find(ref, next.row, next.cb, next.h); e != nil {
			id, _ := identityHash(e.row, e.bits, next.h)
			done = a.idx.Delete(id) // as if e's insert had been skipped
		}
	}
	if err := driveArr(3, stream, dropIndex); err == nil || !done {
		t.Errorf("dropped index insert went unnoticed (mutated=%v)", done)
	}
}

// BenchmarkArrangeSkew measures the join state update against key skew at
// a fixed row count: 30 k distinct 8-column rows inserted over keys join
// keys, then every tenth deleted. With 3000 keys chains hold 10 rows and
// are mostly walked; with 25 they hold 1200 and go through the identity
// index. ns/delta must not grow as keys drop — under the walk alone it grew
// with the chain length.
func BenchmarkArrangeSkew(b *testing.B) {
	const rows = 30000
	for _, keys := range []int{3000, 25} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			stream := make([]delta.Tuple, 0, rows+rows/10)
			hashes := make([]uint64, 0, cap(stream))
			hasher := value.NewHasher()
			for i := 0; i < rows; i++ {
				k := value.Int(int64(i % keys))
				row := value.Row{k, value.Int(int64(i)), value.Str("Customer#000000001"), value.Float(float64(i) / 7),
					value.Int(int64(i % 5)), value.Str("BUILDING"), value.Date(int64(9000 + i%2000)), value.Str("carefully final deposits")}
				stream = append(stream, delta.Tuple{Row: row, Bits: 1, Sign: delta.Insert})
				hashes = append(hashes, hasher.RowHash(value.Row{k}))
			}
			for i := 0; i < rows; i += 10 {
				stream = append(stream, delta.Tuple{Row: stream[i].Row.Clone(), Bits: 1, Sign: delta.Delete})
				hashes = append(hashes, hashes[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &joinArr{}
				var pos int64
				for j, t := range stream {
					a.apply(&pos, nil, t, hashes[j], false)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/delta")
		})
	}
}
