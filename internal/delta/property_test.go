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

// keyFold is the string-key fold Materialize is specified by: one
// value.Key string per tuple, rows in first-arrival order of their key, a
// key's row its last arrival's.
func keyFold(seq delta.Seq, q int) []value.Row {
	var keys []string
	rows := map[string]value.Row{}
	nets := map[string]int{}
	for _, seg := range seq {
		for _, t := range seg {
			if q >= 0 && !t.Bits.Has(q) {
				continue
			}
			k := value.Key(t.Row)
			if _, ok := rows[k]; !ok {
				keys = append(keys, k)
			}
			rows[k] = t.Row
			nets[k] += int(t.Sign)
		}
	}
	var out []value.Row
	for _, k := range keys {
		for range nets[k] {
			out = append(out, rows[k])
		}
	}
	return out
}

// TestMaterializeEqualsKeyFold: on random segmented streams of look-alike
// values — Int and Float images of one number, NULLs, strings — with
// retractions and per-query bits, Materialize returns exactly the
// string-key fold's rows, in its order and with its representatives.
func TestMaterializeEqualsKeyFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	val := func() value.Value {
		switch n := rng.Intn(4); rng.Intn(4) {
		case 0:
			return value.Int(int64(n))
		case 1:
			return value.Float(float64(n))
		case 2:
			return value.Null
		default:
			return value.Str(string(rune('a' + n)))
		}
	}
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(3)
		var seq delta.Seq
		for range rng.Intn(5) {
			seg := make([]delta.Tuple, rng.Intn(30))
			for i := range seg {
				row := make(value.Row, width)
				for c := range row {
					row[c] = val()
				}
				sign := delta.Insert
				if rng.Intn(3) == 0 {
					sign = delta.Delete
				}
				seg[i] = delta.Tuple{Row: row, Bits: mqo.Bitset(rng.Intn(4)), Sign: sign}
			}
			seq = append(seq, seg)
		}
		for q := -1; q < 2; q++ {
			if got, want := delta.Materialize(seq, q), keyFold(seq, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d: Materialize = %v, the key fold = %v", trial, q, got, want)
			}
		}
	}
}

// TestMaterializeAllocatesPerDistinctRow: a 10 000-tuple stream over 10
// distinct rows allocates a few dozen times, not once per tuple.
func TestMaterializeAllocatesPerDistinctRow(t *testing.T) {
	seg := make([]delta.Tuple, 10000)
	for i := range seg {
		seg[i] = ins(int64(i%10), 7)
	}
	seq := delta.Seq{seg[:5000], seg[5000:]}
	allocs := testing.AllocsPerRun(5, func() { delta.Materialize(seq, 0) })
	if allocs > 40 {
		t.Errorf("Materialize of 10 000 tuples over 10 rows allocated %v times, want at most 40", allocs)
	}
}
