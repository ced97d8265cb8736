package exec

// Operator-level benchmarks for the vectorized batch path: the join probe
// and aggregate update loops driven directly through process(), with the
// chunk size as the sub-benchmark axis. Each iteration feeds inserts
// followed by matching deletes, so operator state nets back to the seeded
// baseline and b.N iterations measure a steady state rather than a growing
// hash table. Compare against BenchmarkJoinProbe / BenchmarkGroupLookup,
// which run the same hot paths through the full runner.

import (
	"fmt"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

var batchSizes = []int{1, 8, vec.DefaultBatch}

// BenchmarkBatchJoinProbe measures the equi-join probe loop: the right side
// holds 1024 keyed rows, and each iteration streams 4096 left deltas (2048
// inserts, then the matching deletes) through process. Every delta probes
// one right-side chain; the batch size controls how many probes share one
// chunk's hash/marker scratch.
func BenchmarkBatchJoinProbe(b *testing.B) {
	op := &mqo.Op{
		Payload: mqo.Payload{Kind: mqo.KindJoin,
			LeftKeys:  []expr.Expr{&expr.Column{Index: 0}},
			RightKeys: []expr.Expr{&expr.Column{Index: 0}}},
		Queries:  mqo.Bit(0),
		Children: scansOfWidth(2, 2),
	}
	const rightRows, leftRows = 1024, 2048
	right := make([]delta.Tuple, 0, rightRows)
	for i := 0; i < rightRows; i++ {
		right = append(right, InsertTuple(value.Row{value.Int(int64(i)), value.Str("brand")}))
	}
	left := make([]delta.Tuple, 0, 2*leftRows)
	for i := 0; i < leftRows; i++ {
		left = append(left, InsertTuple(value.Row{value.Int(int64(i % rightRows)), value.Float(float64(i))}))
	}
	for i := 0; i < leftRows; i++ {
		t := left[i]
		t.Sign = delta.Delete
		left = append(left, t)
	}
	for _, batch := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			j := newJoinExec(op, batch, nil)
			process(j, sources(batch, nil, delta.Seq{right}))
			in := sources(batch, delta.Seq{left}, nil)
			process(j, reopen(in)) // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process(j, reopen(in))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(left)), "ns_tuple")
		})
	}
}

// BenchmarkBatchAgg measures the grouped-aggregate update loop: 4096 deltas
// per iteration (2048 inserts cycling through 256 groups, then the matching
// deletes), so every delta is a warm group lookup plus accumulator update
// and the iteration's net output change is empty.
func BenchmarkBatchAgg(b *testing.B) {
	h := newHarness(b, map[string]string{
		"q": `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS s
			FROM lineitem GROUP BY l_partkey`,
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
		b.Fatal("no aggregate operator in plan")
	}
	const groups, deltas = 256, 2048
	seed := make([]delta.Tuple, 0, groups)
	for i := 0; i < groups; i++ {
		seed = append(seed, InsertTuple(value.Row{value.Int(int64(i)), value.Float(1)}))
	}
	stream := make([]delta.Tuple, 0, 2*deltas)
	for i := 0; i < deltas; i++ {
		stream = append(stream, InsertTuple(value.Row{value.Int(int64(i % groups)), value.Float(float64(i))}))
	}
	for i := 0; i < deltas; i++ {
		t := stream[i]
		t.Sign = delta.Delete
		stream = append(stream, t)
	}
	for _, batch := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			g := newAggExec(aggOp, nil)
			process(g, sources(batch, delta.Seq{seed})) // groups pre-exist; lookups stay warm
			in := sources(batch, delta.Seq{stream})
			process(g, reopen(in)) // warm pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process(g, reopen(in))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns_tuple")
		})
	}
}
