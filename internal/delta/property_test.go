// Property tests for delta-stream semantics through buffer.Log. They live
// in package delta_test because buffer imports delta.
package delta_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

func ins(vals ...int64) delta.Tuple {
	row := make(value.Row, len(vals))
	for i, v := range vals {
		row[i] = value.Int(v)
	}
	return delta.Tuple{Row: row, Bits: mqo.Bitset(^uint64(0)), Sign: delta.Insert}
}

func del(vals ...int64) delta.Tuple {
	t := ins(vals...)
	t.Sign = delta.Delete
	return t
}

// canon sorts a materialized row multiset by deterministic key.
func canon(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r)
	}
	sort.Strings(out)
	return out
}

// throughLog appends the stream to a fresh log (in chunks of the given
// size) and materializes everything a reader observes.
func throughLog(t *testing.T, stream []delta.Tuple, chunk int) []value.Row {
	t.Helper()
	log := buffer.NewLog("prop")
	reader := log.NewReader()
	var seen delta.Seq // the views of the log's segments, which never move
	for start := 0; start < len(stream); start += chunk {
		end := start + chunk
		if end > len(stream) {
			end = len(stream)
		}
		log.Append(stream[start:end]...)
		seen = append(seen, reader.ReadNew()...)
	}
	if reader.Pending() != 0 {
		t.Fatalf("reader left %d pending tuples", reader.Pending())
	}
	if log.Len() != len(stream) {
		t.Fatalf("log holds %d tuples, appended %d", log.Len(), len(stream))
	}
	return delta.Materialize(seen, -1)
}

// TestInsertDeleteReinsertRoundTrip: an insert→delete→re-insert sequence
// must materialize identically to a single insert, whether the stream
// passes through a log whole or in arbitrary chunks.
func TestInsertDeleteReinsertRoundTrip(t *testing.T) {
	stream := []delta.Tuple{ins(1, 10), del(1, 10), ins(1, 10), ins(2, 20)}
	want := canon(delta.Materialize(delta.Seq{{ins(1, 10), ins(2, 20)}}, -1))
	for chunk := 1; chunk <= len(stream); chunk++ {
		got := canon(throughLog(t, stream, chunk))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: got %v want %v", chunk, got, want)
		}
	}
}

// TestUpdateAsDeleteInsertRoundTrip: modeling an update as delete+insert
// must materialize exactly like a stream that only ever inserted the final
// values.
func TestUpdateAsDeleteInsertRoundTrip(t *testing.T) {
	updates := []delta.Tuple{
		ins(1, 10), ins(2, 20),
		del(1, 10), ins(1, 11), // update row 1: 10 -> 11
		del(2, 20), ins(2, 22), // update row 2: 20 -> 22
	}
	direct := []delta.Tuple{ins(1, 11), ins(2, 22)}
	want := canon(delta.Materialize(delta.Seq{direct}, -1))
	for chunk := 1; chunk <= len(updates); chunk++ {
		got := canon(throughLog(t, updates, chunk))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: got %v want %v", chunk, got, want)
		}
	}
}

// TestRandomStreamsChunkInvariant: random prefix-consistent streams
// materialize identically for every chunking of the log, and identically
// to delta.Apply's net counts.
func TestRandomStreamsChunkInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var stream []delta.Tuple
		var live [][2]int64
		for len(stream) < 4+r.Intn(30) {
			if len(live) > 0 && r.Float64() < 0.35 {
				i := r.Intn(len(live))
				stream = append(stream, del(live[i][0], live[i][1]))
				live = append(live[:i], live[i+1:]...)
			} else {
				p := [2]int64{int64(r.Intn(5)), int64(r.Intn(5))}
				stream = append(stream, ins(p[0], p[1]))
				live = append(live, p)
			}
		}
		want := canon(delta.Materialize(delta.Seq{stream}, -1))
		if len(want) != len(live) {
			t.Fatalf("trial %d: materialized %d rows, %d live", trial, len(want), len(live))
		}
		for _, chunk := range []int{1, 2, 3, len(stream)} {
			got := canon(throughLog(t, stream, chunk))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d chunk %d: got %v want %v", trial, chunk, got, want)
			}
		}
		counts := delta.Apply(stream, -1)
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != len(live) {
			t.Fatalf("trial %d: Apply nets %d rows, %d live", trial, total, len(live))
		}
	}
}

// TestMaterializePerQueryBits: materialization respects the query bitset.
func TestMaterializePerQueryBits(t *testing.T) {
	a := ins(1)
	a.Bits = mqo.Bit(0)
	b := ins(2)
	b.Bits = mqo.Bit(1)
	stream := []delta.Tuple{a, b}
	if got := delta.Materialize(delta.Seq{stream}, 0); len(got) != 1 || got[0][0].I != 1 {
		t.Fatalf("query 0 sees %v", got)
	}
	if got := delta.Materialize(delta.Seq{stream}, 1); len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("query 1 sees %v", got)
	}
	if got := delta.Materialize(delta.Seq{stream}, -1); len(got) != 2 {
		t.Fatalf("all queries see %v", got)
	}
}
