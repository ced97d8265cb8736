package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 { // n, n-1, ..., 1: unsorted on purpose
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestStats(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		n      int
		median float64
		p95    float64
		p95ok  bool
		p50ok  bool
		q1, q3 float64
		max    float64
	}{
		{n: 1, median: 1, p95: 1, p95ok: false, p50ok: false, q1: nan, q3: nan, max: 1},
		{n: 9, median: 5, p95: 9, p95ok: false, p50ok: false, q1: 2.5, q3: 7.5, max: 9},
		{n: 20, median: 10.5, p95: 19, p95ok: false, p50ok: true, q1: 5.25, q3: 15.75, max: 20},
		{n: 400, median: 200.5, p95: 380, p95ok: true, p50ok: true, q1: 100.25, q3: 300.75, max: 400},
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, c := range cases {
		xs := seq(c.n)
		if got := median(xs); got != c.median {
			t.Errorf("n=%d median = %v, want %v", c.n, got, c.median)
		}
		got, ok := percentile(xs, 95)
		if got != c.p95 || ok != c.p95ok {
			t.Errorf("n=%d p95 = %v,%v, want %v,%v", c.n, got, ok, c.p95, c.p95ok)
		}
		if _, ok := percentile(xs, 50); ok != c.p50ok {
			t.Errorf("n=%d p50 supported = %v, want %v", c.n, ok, c.p50ok)
		}
		q1, q3 := quartiles(xs)
		if !same(q1, c.q1) || !same(q3, c.q3) {
			t.Errorf("n=%d quartiles = %v,%v, want %v,%v", c.n, q1, q3, c.q1, c.q3)
		}
		if got := maxOf(xs); got != c.max {
			t.Errorf("n=%d max = %v, want %v", c.n, got, c.max)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("n=%d input was reordered", c.n)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	// Python: statistics.quantiles([9, 10, 11, 10, 10, 9, 11, 10, 10, 10], n=4)
	if q1, q3 := quartiles([]float64{9, 10, 11, 10, 10, 9, 11, 10, 10, 10}); q1 != 9.75 || q3 != 10.25 {
		t.Errorf("quartiles = %v, %v, want 9.75, 10.25", q1, q3)
	}
}
