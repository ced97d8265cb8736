package sched_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ishare/internal/delta"
	"ishare/internal/exec"
	"ishare/internal/oracle"
	"ishare/internal/sched"
	"ishare/internal/value"
)

// TestSlicesEndAtN: Slices serves its dataset over N windows and nothing
// after them — never tuples from the stream's spare capacity, never a slice
// past its end — and every window is empty when N < 1.
func TestSlicesEndAtN(t *testing.T) {
	backing := make([]delta.Tuple, 20)
	for i := range backing {
		backing[i].Row = value.Row{value.Int(int64(i))}
	}
	src := sched.Slices{Data: exec.DeltaDataset{"t": backing[:10]}, N: 2}
	var got []int64
	for w := 0; w < 4; w++ {
		for _, tu := range src.WindowData(w)["t"] {
			got = append(got, tu.Row[0].I)
		}
	}
	if want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Errorf("4 windows of Slices{N: 2} served %v, want %v", got, want)
	}
	for _, n := range []int{0, -1} {
		if ts := (sched.Slices{Data: src.Data, N: n}).WindowData(0)["t"]; len(ts) != 0 {
			t.Errorf("Slices{N: %d} window 0 served %d tuples, want none", n, len(ts))
		}
	}

	// End to end: a run twice as long as the split idles through the extra
	// windows and still reaches the full-stream results, whether or not
	// the streams have capacity behind them.
	tp := buildPlan(t, 7)
	paces := randPaces(rand.New(rand.NewSource(7)), tp.graph, 4)
	for _, spare := range []bool{false, true} {
		data := exec.DeltaDataset{}
		for name, ts := range tp.data {
			data[name] = slices.Clip(ts)
			if spare {
				data[name] = append(data[name], ts...)[:len(ts)]
			}
		}
		s, err := sched.New(tp.graph, paces, sched.Slices{Data: data, N: 2}, sched.Config{
			Window:    time.Second,
			Windows:   4,
			Clock:     sched.NewVirtualClock(time.Unix(0, 0)),
			WorkRate:  50_000,
			Deadlines: make([]time.Duration, tp.graph.Plan.NumQueries()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("spare=%v: %v", spare, err)
		}
		for q, want := range tp.want {
			if got := oracle.Canon(s.Results(q)); !eqStrings(got, want) {
				t.Errorf("spare=%v: query %d = %v, want %v", spare, q, got, want)
			}
		}
	}
}
