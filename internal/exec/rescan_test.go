package exec

// Tests pinning the modeled-vs-actual split of MIN/MAX extremum retraction:
// the engine may find the next extremum however it likes (the ordered
// multiset does it in O(log n)), but Work.Rescan must keep charging the
// full rescan the paper's cost model assumes — the modeled cost is part of
// every pace decision and experiment table and must not drift with the
// state-layer implementation.

import (
	"math"
	"math/rand"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// totalRescan sums the Rescan work accumulated across all subplans.
func totalRescan(r *Runner) int64 {
	var n int64
	for _, se := range r.Execs {
		n += se.TotalWork().Rescan
	}
	return n
}

// TestModeledRescanCharge pins the modeled rescan accounting: deleting the
// current maximum of an n-value multiset must charge exactly n-1 units of
// Rescan work (the size of the multiset scanned by the modeled rescan),
// regardless of how the engine actually locates the next extremum.
func TestModeledRescanCharge(t *testing.T) { overOptions(t, testModeledRescanCharge) }

func testModeledRescanCharge(t *testing.T) {
	const n = 257
	h := newHarness(t, map[string]string{
		"q": `SELECT MAX(l_quantity) AS max_q FROM lineitem`,
	}, []string{"q"})
	inserts := make([]delta.Tuple, 0, n)
	for i := 1; i <= n; i++ {
		inserts = append(inserts, InsertTuple(value.Row{value.Int(0), value.Float(float64(i))}))
	}
	r, err := New(h.graph, DeltaDataset{"lineitem": inserts}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 1
	}
	if _, err := r.Run(paces); err != nil {
		t.Fatal(err)
	}
	if got := totalRescan(r); got != 0 {
		t.Fatalf("rescan work after inserts = %d, want 0", got)
	}

	// Delete the current maximum: the modeled rescan scans the n-1
	// remaining values.
	del := InsertTuple(value.Row{value.Int(0), value.Float(float64(n))})
	del.Sign = delta.Delete
	r.StartWindow(DeltaDataset{"lineitem": []delta.Tuple{del}})
	r.ArriveWindow(1, 1)
	for _, s := range h.graph.Subplans {
		r.RunSubplan(s.ID)
	}
	if got := totalRescan(r); got != n-1 {
		t.Fatalf("rescan work after extremum retraction = %d, want %d", got, n-1)
	}
	if got := r.SortedResults(0); len(got) != 1 || got[0] != "256" {
		t.Fatalf("post-retraction MAX = %v, want [256]", got)
	}

	// Deleting a non-extremum value charges nothing.
	del2 := InsertTuple(value.Row{value.Int(0), value.Float(1)})
	del2.Sign = delta.Delete
	r.StartWindow(DeltaDataset{"lineitem": []delta.Tuple{del2}})
	r.ArriveWindow(1, 1)
	for _, s := range h.graph.Subplans {
		r.RunSubplan(s.ID)
	}
	if got := totalRescan(r); got != n-1 {
		t.Fatalf("rescan work after non-extremum delete = %d, want %d", got, n-1)
	}
}

// refAccum is the original map-backed MIN/MAX accumulator, kept verbatim as
// the reference for the differential test below: the production accumulator
// must report the same extremum, the same validity flag and the same
// modeled rescan work after every update, whatever backs its multiset.
type refAccum struct {
	count int64
	vals  map[float64]int64
	cur   float64
	curOK bool
}

func (a *refAccum) update(fn plan.AggFunc, f float64, sign delta.Sign) int64 {
	s := int64(sign)
	if a.vals == nil {
		a.vals = make(map[float64]int64)
	}
	a.count += s
	a.vals[f] += s
	if a.vals[f] == 0 {
		delete(a.vals, f)
	}
	if sign == delta.Insert {
		if !a.curOK || better(fn, f, a.cur) {
			a.cur, a.curOK = f, true
		}
		return 0
	}
	if a.curOK && f == a.cur && a.vals[f] == 0 {
		rescan := int64(len(a.vals))
		a.curOK = false
		for v2 := range a.vals {
			if !a.curOK || better(fn, v2, a.cur) {
				a.cur, a.curOK = v2, true
			}
		}
		return rescan
	}
	return 0
}

// TestAccumMatchesMapReference drives the production MIN/MAX accumulator and
// the original map-backed reference through identical random update streams
// (duplicate-heavy, deletion-heavy, including ±0.0 and out-of-order deletes
// that take multiplicities negative) and requires identical extremum state
// and identical modeled rescan work at every step.
func TestAccumMatchesMapReference(t *testing.T) {
	for _, fn := range []plan.AggFunc{plan.AggMin, plan.AggMax} {
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var got accum
			var want refAccum
			// Small value domain forces heavy duplication; the pool
			// includes both zeros.
			pool := []float64{0.0, math.Copysign(0, -1), 1, 1.5, 2, 3, 5, 8, 13, 21}
			for step := 0; step < 400; step++ {
				v := pool[rng.Intn(len(pool))]
				sign := delta.Insert
				if rng.Intn(2) == 0 {
					sign = delta.Delete
				}
				gr := got.update(minMaxSpec(fn), value.Float(v), sign)
				wr := want.update(fn, v, sign)
				if gr != wr {
					t.Fatalf("fn=%v seed=%d step=%d: rescan work %d, reference %d", fn, seed, step, gr, wr)
				}
				if got.curOK != want.curOK || (got.curOK && got.cur != want.cur) {
					t.Fatalf("fn=%v seed=%d step=%d: cur=(%v,%v), reference (%v,%v)",
						fn, seed, step, got.cur, got.curOK, want.cur, want.curOK)
				}
				if got.count != want.count {
					t.Fatalf("fn=%v seed=%d step=%d: count=%d, reference %d", fn, seed, step, got.count, want.count)
				}
			}
		}
	}
}

// minMaxSpec builds an AggSpec whose Arg is non-nil so accum.update takes
// the MIN/MAX path.
func minMaxSpec(fn plan.AggFunc) plan.AggSpec {
	return plan.AggSpec{Func: fn, Arg: &expr.Column{Index: 0}}
}
