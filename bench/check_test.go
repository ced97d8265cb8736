package main

import (
	"testing"

	"ishare/internal/value"
)

func TestSameRows(t *testing.T) {
	row := func(vs ...value.Value) value.Row { return value.Row(vs) }
	a := []value.Row{row(value.Str("x"), value.Float(0.1+0.2)), row(value.Str("y"), value.Int(3))}
	cases := []struct {
		name string
		b    []value.Row
		want bool
	}{
		{"reordered, float in the last bits, int as float", []value.Row{row(value.Str("y"), value.Float(3)), row(value.Str("x"), value.Float(0.3))}, true},
		{"float off by 1e-6", []value.Row{row(value.Str("x"), value.Float(0.300001)), row(value.Str("y"), value.Int(3))}, false},
		{"integer off by one", []value.Row{row(value.Str("x"), value.Float(0.3)), row(value.Str("y"), value.Int(4))}, false},
		{"string differs", []value.Row{row(value.Str("z"), value.Float(0.3)), row(value.Str("y"), value.Int(3))}, false},
		{"row missing", []value.Row{row(value.Str("x"), value.Float(0.3))}, false},
		{"null for a number", []value.Row{row(value.Str("x"), value.Null), row(value.Str("y"), value.Int(3))}, false},
	}
	for _, c := range cases {
		if got := sameRows(a, c.b); got != c.want {
			t.Errorf("%s: sameRows = %v, want %v", c.name, got, c.want)
		}
	}
	if a[0][0].S != "x" {
		t.Error("sameRows reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.job = 0
	r.do("bench", "job", func() {
		r.do("exec", "run", func() {})
		r.do("sched", "window", func() { r.attribute("exec", "firings", 0) })
	})
	r.job = -1
	r.do("cost", "probe", func() {})
	if len(r.spans) != 5 || r.spans[1].Parent != 0 || r.spans[3].Parent != 2 || r.spans[4].Parent != -1 {
		t.Fatalf("span tree wrong: %+v", r.spans)
	}
	byLayer, total := r.selfTimes(inJob)
	if _, probe := byLayer["cost"]; probe {
		t.Error("a probe span counted into the operations' layer table")
	}
	var sum, jobSpan = byLayer["bench"] + byLayer["exec"] + byLayer["sched"], r.spans[0].End - r.spans[0].Start
	if sum != total || total != jobSpan {
		t.Errorf("self times sum to %v, total %v, job span %v", sum, total, jobSpan)
	}
}
