package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "STRING",
		KindBool:   "BOOL",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	if Int(7).AsInt() != 7 || Int(7).K != KindInt {
		t.Error("Int constructor broken")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float constructor broken")
	}
	if Str("x").S != "x" {
		t.Error("Str constructor broken")
	}
	if !Bool(true).Truth() || Bool(false).Truth() {
		t.Error("Bool truth broken")
	}
	if Null.Truth() {
		t.Error("NULL must not be truthy")
	}
	if Date(100).AsInt() != 100 || Date(100).K != KindDate {
		t.Error("Date constructor broken")
	}
	if Float(2.9).AsInt() != 2 {
		t.Error("AsInt should truncate floats")
	}
	if Str("x").AsFloat() != 0 || Str("x").AsInt() != 0 {
		t.Error("non-numeric AsFloat/AsInt should be 0")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, Int(1), -1},
		{Int(1), Null, 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Date(1), Date(2), -1},
		{Float(1.0), Float(2.0), -1},
		{Float(2.0), Float(1.0), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Date(10), "date(10)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone must not alias the original")
	}
	if !r.Equal(Row{Int(1), Str("a")}) {
		t.Error("row changed unexpectedly")
	}
}

func TestRowEqual(t *testing.T) {
	if (Row{Int(1)}).Equal(Row{Int(1), Int(2)}) {
		t.Error("rows of different length must differ")
	}
	if !(Row{Int(2)}).Equal(Row{Float(2)}) {
		t.Error("numeric rows compare by value")
	}
	if (Row{Str("a")}).Equal(Row{Str("b")}) {
		t.Error("different strings must differ")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Int(1), Str("x"), Null}
	if got := r.String(); got != "1|x|NULL" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestHashEqualRowsEqualHash(t *testing.T) {
	a := Row{Int(2), Str("abc")}
	b := Row{Float(2), Str("abc")}
	if HashRow(a) != HashRow(b) {
		t.Error("rows that compare equal must hash equal")
	}
	if Key(a) != Key(b) {
		t.Error("rows that compare equal must key equal")
	}
}

// TestIdentityHashAgreesWithEqual pins the contract the join's identity
// index rests on: rows Row.Equal calls equal hash alike — across Int/Float
// twins, ±0 and integers past float precision — and a row holding a NaN,
// which Equal matches against any number, is refused.
func TestIdentityHashAgreesWithEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []Value{
		Null, Int(0), Float(0), Float(negZero), Int(2), Float(2), Float(2.5), Bool(true), Int(1), Date(1),
		Str(""), Str("a"), Int(1 << 53), Int(1<<53 + 1), Float(1 << 53), Int(-7), Float(-7),
	}
	for _, a := range vals {
		for _, b := range vals {
			ra, rb := Row{Str("k"), a}, Row{Str("k"), b}
			ha, oka := IdentityHash(ra)
			hb, okb := IdentityHash(rb)
			if !oka || !okb {
				t.Fatalf("IdentityHash refused %v or %v", ra, rb)
			}
			if ra.Equal(rb) && ha != hb {
				t.Errorf("%v equals %v but hashes %x vs %x", ra, rb, ha, hb)
			}
		}
	}
	h12, _ := IdentityHash(Row{Int(1), Int(2)})
	h21, _ := IdentityHash(Row{Int(2), Int(1)})
	if h12 == h21 {
		t.Error("column order does not reach the hash")
	}
	nan := Row{Int(1), Float(math.NaN())}
	if !nan.Equal(Row{Int(1), Float(3)}) {
		t.Error("Row.Equal stopped matching NaN against numbers: IdentityHash may hash it now")
	}
	if _, ok := IdentityHash(nan); ok {
		t.Error("IdentityHash accepted a row holding NaN")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	cases := [][2]Row{
		{{Int(1)}, {Int(2)}},
		{{Str("a")}, {Str("b")}},
		{{Str("ab"), Str("c")}, {Str("a"), Str("bc")}},
		{{Null}, {Int(0)}},
		{{Bool(true)}, {Int(1)}},
	}
	for _, c := range cases {
		if Key(c[0]) == Key(c[1]) {
			t.Errorf("Key collision: %v vs %v", c[0], c[1])
		}
	}
}

// TestQuickCompareAntisymmetric checks Compare(a,b) == -Compare(b,a).
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(ai, bi int64, af, bf float64, pick uint8) bool {
		a := pickValue(pick, ai, af)
		b := pickValue(pick>>2, bi, bf)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualImpliesSameKey checks the Key function respects equality.
func TestQuickEqualImpliesSameKey(t *testing.T) {
	f := func(ai int64, pick uint8) bool {
		a := pickValue(pick, ai, float64(ai))
		b := a
		return Key(Row{a}) == Key(Row{b}) && HashRow(Row{a}) == HashRow(Row{b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func pickValue(pick uint8, i int64, f float64) Value {
	switch pick % 5 {
	case 0:
		return Int(i)
	case 1:
		return Float(f)
	case 2:
		return Str(string(rune('a' + i%26)))
	case 3:
		return Bool(i%2 == 0)
	default:
		return Null
	}
}

func BenchmarkHashRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 1024)
	for i := range rows {
		rows[i] = Row{Int(rng.Int63()), Str("customer-key"), Float(rng.Float64())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashRow(rows[i%len(rows)])
	}
}
