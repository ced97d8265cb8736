package expr

import (
	"testing"

	"ishare/internal/value"
)

func TestCanonDistinguishesColumnsBySameName(t *testing.T) {
	a := &Binary{OpEq, col(0, "n_name", value.KindString), lit(value.Str("FRANCE"))}
	b := &Binary{OpEq, col(3, "n_name", value.KindString), lit(value.Str("FRANCE"))}
	if a.String() != b.String() {
		t.Fatal("display strings should collide (same name)")
	}
	if Canon(a) == Canon(b) {
		t.Error("Canon must distinguish columns at different positions")
	}
}

func TestCanonForms(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{col(2, "x", value.KindInt), "x#2"},
		{lit(value.Int(5)), "5"},
		{lit(value.Float(5)), "5.0"},
		{lit(value.Float(-2)), "-2.0"},
		{lit(value.Float(2.5)), "2.5"},
		{lit(value.Float(1e21)), "1e+21"},
		{lit(value.Str("s")), "'s'"},
		{&Binary{OpAdd, col(0, "a", value.KindInt), lit(value.Int(1))}, "(a#0 + 1)"},
		{&Unary{OpNot, lit(value.Bool(true))}, "(NOT true)"},
		{&Unary{OpNeg, col(1, "b", value.KindInt)}, "(-b#1)"},
	}
	for _, c := range cases {
		if got := Canon(c.e); got != c.want {
			t.Errorf("Canon = %q, want %q", got, c.want)
		}
	}
	if Canon(nil) != "<nil>" {
		t.Error("Canon(nil) wrong")
	}
}

func TestDescribe(t *testing.T) {
	if Describe(nil) != "true" {
		t.Error("nil predicate describes as true")
	}
	e := &Binary{OpLt, col(0, "a", value.KindInt), lit(value.Int(3))}
	if Describe(e) != "(a < 3)" {
		t.Errorf("Describe = %q", Describe(e))
	}
}
