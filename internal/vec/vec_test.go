package vec_test

import (
	"math"
	"math/rand"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

func TestSelVectorCompactMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		var s vec.SelVector
		s = s.Identity(n)
		// Random subset first, so Compact also runs over non-identity input.
		drop := make(map[int32]bool)
		for i := 0; i < n/3; i++ {
			drop[int32(r.Intn(n))] = true
		}
		s = s.Compact(func(i int32) bool { return !drop[i] })
		keep := make(map[int32]bool)
		for _, i := range s {
			if r.Intn(2) == 0 {
				keep[i] = true
			}
		}
		// Naive reference: a fresh filtered copy.
		want := make([]int32, 0, len(s))
		for _, i := range s {
			if keep[i] {
				want = append(want, i)
			}
		}
		got := s.Compact(func(i int32) bool { return keep[i] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: got[%d] = %d, want %d", trial, j, got[j], want[j])
			}
		}
		// Order must stay ascending (operators rely on it for stable output).
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("trial %d: selection not ascending: %v", trial, got)
			}
		}
	}
}

func TestSelVectorIdentityReusesBacking(t *testing.T) {
	var s vec.SelVector
	s = s.Identity(64)
	p := &s[0]
	s = s.Compact(func(i int32) bool { return i%2 == 0 })
	s = s.Identity(64)
	if &s[0] != p {
		t.Error("Identity reallocated despite sufficient capacity")
	}
}

func TestSlabArenaCarvesAreIsolated(t *testing.T) {
	var a vec.SlabArena[int64]
	carved := make([][]int64, 0, 200)
	for i := 0; i < 200; i++ {
		s := a.New(1 + i%7)
		if cap(s) != len(s) {
			t.Fatalf("carve %d: cap %d != len %d (not capacity-clamped)", i, cap(s), len(s))
		}
		for j := range s {
			s[j] = int64(i)
		}
		carved = append(carved, s)
	}
	for i, s := range carved {
		// Appending must not bleed into the neighboring carve.
		_ = append(s, -1)
		for j, v := range s {
			if v != int64(i) {
				t.Fatalf("carve %d[%d] = %d, want %d (slab overlap)", i, j, v, i)
			}
		}
	}
}

func TestRowArenaRowsSurvive(t *testing.T) {
	var a vec.RowArena
	rows := make([]value.Row, 0, 100)
	for i := 0; i < 100; i++ {
		r := a.NewRow(2)
		r[0], r[1] = value.Int(int64(i)), value.Str("x")
		rows = append(rows, r)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d corrupted: %v", i, r)
		}
	}
}

// TestFloatKeySemantics pins the grouping-key rules the vectorized path must
// preserve (they are shared with internal/ordset): ±0.0 are distinct keys
// even though they compare equal, all NaNs are one key, and Int/Float
// collapse to their float64 image. Predicate equality (value.Compare) and
// key identity (value.KeyEqual) deliberately disagree on ±0.0 — filters see
// one zero, GROUP BY sees two.
func TestFloatKeySemantics(t *testing.T) {
	pz, nz := value.Float(0), value.Float(math.Copysign(0, -1))
	nan := value.Float(math.NaN())
	if !value.Equal(pz, nz) {
		t.Error("Compare must treat +0.0 = -0.0")
	}
	if value.KeyEqual(pz, nz) {
		t.Error("KeyEqual must keep +0.0 and -0.0 distinct")
	}
	if value.Key(value.Row{pz}) == value.Key(value.Row{nz}) {
		t.Error("AppendKey encodings of +0.0 and -0.0 must differ")
	}
	if !value.KeyEqual(nan, value.Float(math.NaN())) {
		t.Error("all NaNs must be one key")
	}
	if value.Key(value.Row{nan}) != value.Key(value.Row{value.Float(math.NaN())}) {
		t.Error("NaN key encodings must agree")
	}
	if !value.KeyEqual(value.Int(2), value.Float(2)) {
		t.Error("Int(2) and Float(2) must share a key")
	}
	if value.HashRow(value.Row{nan}) != value.HashRow(value.Row{value.Float(math.NaN())}) {
		t.Error("NaN hashes must agree")
	}

	// The vectorized comparison kernel must agree with scalar Eval on the
	// adversarial floats, including the col-vs-const Truths specialization.
	rows := []value.Row{{pz}, {nz}, {nan}, {value.Float(1)}, {value.Null}}
	tup := make([]delta.Tuple, len(rows))
	for i, r := range rows {
		tup[i] = delta.Tuple{Row: r, Bits: mqo.Bit(0), Sign: delta.Insert}
	}
	var ch vec.Chunk
	ch.Reset(tup)
	for _, op := range []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe} {
		e := &expr.Binary{Op: op, L: &expr.Column{Index: 0}, R: &expr.Const{Val: value.Float(0)}}
		truths := vec.Compile(e).Truths(&ch, ch.Sel)
		for i, r := range rows {
			if want := e.Eval(r).Truth(); truths[i] != want {
				t.Errorf("op %v row %v: vectorized %v, scalar %v", op, r, truths[i], want)
			}
		}
	}
}

// randExpr builds a random expression over width-w rows: comparisons,
// AND/OR/NOT, arithmetic, LIKE, columns and constants, with NULL, NaN and
// ±0.0 sprinkled through the constant pool.
func randExpr(r *rand.Rand, w, depth int) expr.Expr {
	consts := []value.Value{
		value.Null, value.Int(0), value.Int(3), value.Int(-2),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(2.5), value.Str("ab"), value.Str("b%"), value.Bool(true),
	}
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return &expr.Column{Index: r.Intn(w)}
		}
		return &expr.Const{Val: consts[r.Intn(len(consts))]}
	}
	switch r.Intn(8) {
	case 0:
		return &expr.Unary{Op: expr.OpNot, E: randExpr(r, w, depth-1)}
	case 1:
		return &expr.Unary{Op: expr.OpNeg, E: randExpr(r, w, depth-1)}
	case 2:
		return expr.NewLike(randExpr(r, w, depth-1), "a%", r.Intn(2) == 0)
	case 3, 4:
		ops := []expr.Op{expr.OpAnd, expr.OpOr}
		return &expr.Binary{Op: ops[r.Intn(len(ops))], L: randExpr(r, w, depth-1), R: randExpr(r, w, depth-1)}
	case 5:
		ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul}
		return &expr.Binary{Op: ops[r.Intn(len(ops))], L: randExpr(r, w, depth-1), R: randExpr(r, w, depth-1)}
	default:
		ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		return &expr.Binary{Op: ops[r.Intn(len(ops))], L: randExpr(r, w, depth-1), R: randExpr(r, w, depth-1)}
	}
}

func randRow(r *rand.Rand, w int) value.Row {
	pool := []value.Value{
		value.Null, value.Int(int64(r.Intn(5) - 2)), value.Float(float64(r.Intn(7)) / 2),
		value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Str([]string{"", "a", "ab", "ba"}[r.Intn(4)]), value.Bool(r.Intn(2) == 0),
	}
	row := make(value.Row, w)
	for i := range row {
		row[i] = pool[r.Intn(len(pool))]
	}
	return row
}

// TestEvalMatchesScalar is the core property: for random expression trees,
// random chunks and random selections, Compile(e).Values must agree with
// row-at-a-time e.Eval on every selected tuple, and Truths must agree with
// Values + Truth. Equality is by key encoding, so NaN results compare equal
// to themselves and ±0.0 results are distinguished.
func TestEvalMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const w = 3
	for trial := 0; trial < 500; trial++ {
		e := randExpr(r, w, 3)
		n := 1 + r.Intn(12)
		tup := make([]delta.Tuple, n)
		for i := range tup {
			tup[i] = delta.Tuple{Row: randRow(r, w), Bits: mqo.Bit(0), Sign: delta.Insert}
		}
		var ch vec.Chunk
		ch.Reset(tup)
		// Random sub-selection, sometimes empty.
		ch.Sel = ch.Sel.Compact(func(i int32) bool { return r.Intn(4) > 0 })
		ev := vec.Compile(e)
		vals := ev.Values(&ch, ch.Sel)
		for _, i := range ch.Sel {
			want := e.Eval(tup[i].Row)
			if value.Key(value.Row{vals[i]}) != value.Key(value.Row{want}) {
				t.Fatalf("trial %d: %v over %v: vectorized %v, scalar %v",
					trial, e, tup[i].Row, vals[i], want)
			}
		}
		truths := ev.Truths(&ch, ch.Sel)
		for _, i := range ch.Sel {
			if want := e.Eval(tup[i].Row).Truth(); truths[i] != want {
				t.Fatalf("trial %d: %v over %v: Truths %v, scalar Truth %v",
					trial, e, tup[i].Row, truths[i], want)
			}
		}
	}
}

// TestChunkProjView pins the projected-column view: At and compiled
// expressions must read Proj columns instead of tuple rows, so markers can
// filter on freshly projected values before any row is materialized.
func TestChunkProjView(t *testing.T) {
	tup := []delta.Tuple{
		{Row: value.Row{value.Int(1)}, Bits: mqo.Bit(0), Sign: delta.Insert},
		{Row: value.Row{value.Int(2)}, Bits: mqo.Bit(0), Sign: delta.Insert},
	}
	var ch vec.Chunk
	ch.Reset(tup)
	ch.Proj = [][]value.Value{{value.Int(10), value.Int(20)}}
	if got := ch.At(0, 1); got.I != 20 {
		t.Fatalf("At under Proj = %v, want 20", got)
	}
	ev := vec.Compile(&expr.Binary{Op: expr.OpGt, L: &expr.Column{Index: 0}, R: &expr.Const{Val: value.Int(15)}})
	truths := ev.Truths(&ch, ch.Sel)
	if truths[0] || !truths[1] {
		t.Fatalf("Truths under Proj = %v, want [false true]", truths[:2])
	}
	ch.Proj = nil
	truths = ev.Truths(&ch, ch.Sel)
	if truths[0] || truths[1] {
		t.Fatalf("Truths over rows = %v, want [false false]", truths[:2])
	}
}
