package exec

// Benchmarks for the executor's state layer: the aggregation group index
// (hash lookups per input tuple) and MIN/MAX extremum retraction (the Q15
// hard case, where deleting the current extremum forces the engine to find
// the next one). These isolate the data-structure hot paths that
// BenchmarkJoinProbe and the figure benchmarks only exercise indirectly.
//
// Note the modeled/actual split: Work.Rescan always charges the full
// multiset rescan the paper's cost model assumes, while the ns/op measured
// here is the engine's actual CPU. BenchmarkAggRetract's per-retraction
// metric is what the ordered-multiset state layer drives sublinear.

import (
	"fmt"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// retractStream builds the MIN/MAX-heavy delete stream: n distinct values
// inserted ascending, then the top half deleted max-first so every deletion
// retracts the current extremum.
func retractStream(n int) []delta.Tuple {
	stream := make([]delta.Tuple, 0, n+n/2)
	for i := 1; i <= n; i++ {
		stream = append(stream, InsertTuple(value.Row{value.Int(0), value.Float(float64(i))}))
	}
	for i := n; i > n/2; i-- {
		t := InsertTuple(value.Row{value.Int(0), value.Float(float64(i))})
		t.Sign = delta.Delete
		stream = append(stream, t)
	}
	return stream
}

// BenchmarkAggRetract measures extremum retraction: a scalar MAX aggregate
// fed a deletion stream that retracts the current maximum n/2 times. The
// ns_retract metric (actual CPU per retraction) scales with the multiset
// size under a linear rescan and stays near-flat under the ordered
// multiset; the modeled Work.Rescan charge is identical either way.
func BenchmarkAggRetract(b *testing.B) {
	h := newHarness(b, map[string]string{
		"q": `SELECT MAX(l_quantity) AS max_q FROM lineitem`,
	}, []string{"q"})
	for _, n := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := DeltaDataset{"lineitem": retractStream(n)}
			paces := make([]int, len(h.graph.Subplans))
			for i := range paces {
				paces[i] = 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := NewDeltaRunner(h.graph, data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(paces); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(n/2)), "ns_retract")
		})
	}
}

// TestAggSteadyStateAllocs guards the aggregate's pooled scratch: once
// groups exist and the pools are warm, a process call whose deltas net to
// no output change (insert and delete of the same row in one batch) must
// not allocate — the dirty list, group lookups, emission buffers and
// comparison encodings all reuse operator-owned storage. The same holds end
// to end over a segmented log: a reader's ReadNew, chunk iteration across
// segment boundaries and process allocate nothing either.
func TestAggSteadyStateAllocs(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS s,
			MAX(l_quantity) AS hi FROM lineitem GROUP BY l_partkey`,
	}, []string{"q"})
	var aggOp *mqo.Op
	for _, sp := range h.graph.Subplans {
		for _, op := range sp.Ops {
			if op.Kind == mqo.KindAggregate {
				aggOp = op
			}
		}
	}
	if aggOp == nil {
		t.Fatal("no aggregate operator in plan")
	}
	g := newAggExec(aggOp, nil)
	seed := make([]delta.Tuple, 0, 64)
	for i := 0; i < 64; i++ {
		seed = append(seed, InsertTuple(value.Row{value.Int(int64(i % 8)), value.Float(float64(i))}))
	}
	process(g, sources(vec.DefaultBatch, delta.Seq{seed}))
	// The insert briefly becomes the group MAX, so its deletion also
	// exercises the extremum-retraction path allocation-free.
	pair := func(group int64) (delta.Tuple, delta.Tuple) {
		ins := InsertTuple(value.Row{value.Int(group), value.Float(999)})
		del := ins
		del.Sign = delta.Delete
		return ins, del
	}
	ins, del := pair(3)
	in := sources(vec.DefaultBatch, delta.Seq{{ins, del}})
	for i := 0; i < 8; i++ {
		process(g, reopen(in)) // warm the pools
	}
	if avg := testing.AllocsPerRun(200, func() { process(g, reopen(in)) }); avg > 0 {
		t.Errorf("steady-state process allocated %.2f allocs/run, want 0", avg)
	}

	// Each run reads the next 600 tuples of insert/delete pairs from a log
	// of 1024-tuple segments, so windows straddle segment boundaries.
	const pairs, warm, runs = 300, 8, 200
	log := buffer.NewLog("t")
	stream := make([]delta.Tuple, 0, 2*pairs*(warm+runs+1))
	for i := 0; i < cap(stream)/2; i++ {
		ins, del := pair(int64(i % 8))
		stream = append(stream, ins, del)
	}
	log.Append(stream...)
	rd := log.NewReader()
	src := &seqSource{rd: rd, batch: vec.DefaultBatch}
	in1 := []source{src}
	straddled := 0
	step := func() {
		rd.SetLimit(rd.Offset() + 2*pairs)
		src.open()
		if len(src.seq) > 1 {
			straddled++
		}
		process(g, in1)
		src.close()
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(runs, step); avg > 0 {
		t.Errorf("steady-state ReadNew+process over segments allocated %.2f allocs/run, want 0", avg)
	}
	if rd.Offset() != log.Len() || straddled == 0 {
		t.Fatalf("reader at %d of %d, %d reads over two segments: the runs did not cover the log", rd.Offset(), log.Len(), straddled)
	}
}

// BenchmarkGroupLookup measures the aggregation group index: a grouped
// COUNT/SUM over a stream cycling through 4096 distinct group keys, so the
// dominant cost is the per-tuple group lookup (hash, probe, key encoding).
func BenchmarkGroupLookup(b *testing.B) {
	h := newHarness(b, map[string]string{
		"q": `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS s
			FROM lineitem GROUP BY l_partkey`,
	}, []string{"q"})
	const groups, rounds = 4096, 4
	rows := make([]value.Row, 0, groups*rounds)
	for i := 0; i < groups*rounds; i++ {
		rows = append(rows, value.Row{value.Int(int64(i % groups)), value.Float(float64(i))})
	}
	data := Dataset{"lineitem": rows}
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(h.graph, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(paces); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups*rounds), "ns_tuple")
}
