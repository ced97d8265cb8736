package vec_test

// Microbenchmarks for the vectorized batch layer itself: predicate
// evaluation over a chunk's selection vector, isolated from operator and
// runner overhead. BenchmarkBatchJoinProbe and BenchmarkBatchAgg
// (internal/exec) cover the operator-level hot paths.

import (
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// BenchmarkChunkFilter measures a compiled conjunctive predicate flipping
// selection-vector entries over a full chunk: the scan/marker hot loop
// (Truths + bit clearing) with everything else stripped away. About half
// the tuples fail the first conjunct, exercising the AND short-circuit's
// sub-selection.
func BenchmarkChunkFilter(b *testing.B) {
	tup := make([]delta.Tuple, vec.DefaultBatch)
	for i := range tup {
		tup[i] = delta.Tuple{
			Row:  value.Row{value.Int(int64(i % 100)), value.Float(float64(i))},
			Bits: mqo.Bit(0),
			Sign: delta.Insert,
		}
	}
	pred := vec.Compile(&expr.Binary{
		Op: expr.OpAnd,
		L:  &expr.Binary{Op: expr.OpLt, L: &expr.Column{Index: 0}, R: &expr.Const{Val: value.Int(50)}},
		R:  &expr.Binary{Op: expr.OpGe, L: &expr.Column{Index: 1}, R: &expr.Const{Val: value.Float(128)}},
	})
	var ch vec.Chunk
	bit := mqo.Bit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Reset(tup)
		ch.InitBits(bit)
		truths := pred.Truths(&ch, ch.Sel)
		for _, idx := range ch.Sel {
			if !truths[idx] {
				ch.Bits[idx] &^= bit
			}
		}
		ch.NarrowNonEmpty()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tup)), "ns_tuple")
}
