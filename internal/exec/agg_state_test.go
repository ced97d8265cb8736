package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// TestGroupStatePages: stripes never alias across pages or within one; the
// first page holds firstStripes stripes, and pages double until a page
// holds pageElems elements or more, then keep that size.
func TestGroupStatePages(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {1, 1}, {3, 2}, {10, 4}, {64, 8}} {
		width, naggs := shape[0], shape[1]
		p := newGroupState(width, naggs)
		// Enough stripes for several full pages at a few MB.
		stripes := min(20000, 100000/max(width*naggs, width))
		for i := 0; i < stripes; i++ {
			if got := p.alloc(); got != int32(i+1) {
				t.Fatalf("%v: stripe %d handed out as ref %d", shape, i, got)
			}
			ns, accs := p.at(int32(i + 1))
			if len(ns) != width || len(accs) != width*naggs {
				t.Fatalf("%v: stripe %d has %d counts, %d accumulators", shape, i, len(ns), len(accs))
			}
			for j := range ns {
				ns[j] = int64(i)
			}
			for j := range accs {
				accs[j].count = int64(i)
			}
		}
		for i := 0; i < stripes; i++ {
			ns, accs := p.at(int32(i + 1))
			for j := range ns {
				if ns[j] != int64(i) {
					t.Fatalf("%v: stripe %d count %d overwritten by stripe %d", shape, i, j, ns[j])
				}
			}
			for j := range accs {
				if accs[j].count != int64(i) {
					t.Fatalf("%v: stripe %d accumulator %d overwritten by stripe %d", shape, i, j, accs[j].count)
				}
			}
		}
		elems := func(page int) int { return max(len(p.counts[page]), len(p.accs[page])) }
		if got := len(p.counts[0]); got != firstStripes*width {
			t.Errorf("%v: first page holds %d counts, want %d", shape, got, firstStripes*width)
		}
		for page := 1; page < len(p.counts); page++ {
			prev, cur := elems(page-1), elems(page)
			switch {
			case prev < pageElems && cur != 2*prev:
				t.Errorf("%v: page %d holds %d elements after %d, want double", shape, page, cur, prev)
			case prev >= pageElems && cur != prev:
				t.Errorf("%v: full page %d holds %d elements after %d", shape, page, cur, prev)
			}
		}
	}
}

// TestAggStripeReuseIsInvisible: groups drain and new groups take their
// zeroed stripes, and every execution's output and Work equal those of an
// executor that never reuses a stripe.
func TestAggStripeReuseIsInvisible(t *testing.T) {
	op := &mqo.Op{Queries: mqo.Bit(0).With(1), Children: scansOfWidth(2), Payload: mqo.Payload{
		Kind:    mqo.KindAggregate,
		GroupBy: []plan.NamedExpr{{E: &expr.Column{Index: 0, Kind: value.KindInt}}},
		Aggs: []plan.AggSpec{
			{Func: plan.AggMin, Arg: &expr.Column{Index: 1, Kind: value.KindFloat}},
			{Func: plan.AggSum, Arg: &expr.Column{Index: 1, Kind: value.KindFloat}},
			{Func: plan.AggCount},
		}}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reusing, fresh := newAggExec(op, nil), newAggExec(op, nil)
		var live []delta.Tuple // inserted and not yet deleted
		for win := 0; win < 30; win++ {
			var in []delta.Tuple
			for range rng.Intn(12) {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					t := live[k]
					live = append(live[:k], live[k+1:]...)
					t.Sign = delta.Delete
					in = append(in, t)
					continue
				}
				// Tenths: a drained group's float sum keeps rounding
				// residue, which a reused stripe must not inherit.
				t := InsertTuple(value.Row{value.Int(int64(rng.Intn(6))), value.Float(float64(rng.Intn(20)) / 10)})
				t.Bits = mqo.Bitset(1 + rng.Intn(3))
				live = append(live, t)
				in = append(in, t)
			}
			got, gw := process(reusing, sources(vec.DefaultBatch, delta.Seq{in}))
			gotOut := fmt.Sprint(got)
			want, ww := process(fresh, sources(vec.DefaultBatch, delta.Seq{in}))
			fresh.state.free = nil // never reuse a stripe
			if gotOut != fmt.Sprint(want) || gw != ww {
				t.Fatalf("seed %d window %d: output %s work %+v; without reuse %v work %+v", seed, win, gotOut, gw, want, ww)
			}
			if reusing.stateSize() != fresh.stateSize() {
				t.Fatalf("seed %d window %d: %d live groups, without reuse %d", seed, win, reusing.stateSize(), fresh.stateSize())
			}
		}
		if reusing.state.used >= fresh.state.used {
			t.Errorf("seed %d: %d stripes handed out with reuse, %d without: no stripe was reused", seed, reusing.state.used, fresh.state.used)
		}
	}
}
