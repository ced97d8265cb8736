package exec

import (
	"fmt"
	"testing"
)

// BenchmarkWindowReuse measures the window-level reuse fast path on the
// workload shape it exists for: a plan where most query cones idle in most
// windows. Six part-only queries see deltas only in the seed window; every
// later window feeds lineitem alone at pace 8, so the entire part side of
// the plan (well over half the subplans) is provably clean and its firings
// are skippable. The reuse=on and reuse=off sub-benchmarks run the same
// windows with the gate skipping and with every firing executed for real;
// compare medians of several -count runs (single back-to-back runs are
// meaningless on a noisy host).
func BenchmarkWindowReuse(b *testing.B) {
	sqls := map[string]string{
		"lq": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}
	order := []string{"lq"}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("pq%d", i)
		sqls[name] = fmt.Sprintf("SELECT p_brand FROM part WHERE p_size > %d", i*2)
		order = append(order, name)
	}
	h := newHarness(b, sqls, order)

	var partSeed [][3]interface{}
	for i := 0; i < 16; i++ {
		partSeed = append(partSeed, [3]interface{}{i, "B", i % 21})
	}
	seed := DeltaDataset{
		"part":     InsertStream(Dataset{"x": partRows(partSeed...)})["x"],
		"lineitem": InsertStream(Dataset{"x": lineitemRows([2]int64{1, 10}, [2]int64{2, 4})})["x"],
	}
	win := DeltaDataset{
		"lineitem": InsertStream(Dataset{"x": lineitemRows(
			[2]int64{1, 3}, [2]int64{2, 7}, [2]int64{3, 1}, [2]int64{1, 2},
		)})["x"],
	}
	const (
		windows = 16
		pace    = 8
	)

	run := func(b *testing.B, opts Options) *Runner {
		r, err := New(h.graph, DeltaDataset{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		r.StartWindow(seed)
		r.ArriveWindow(1, 1)
		for id := range r.Graph.Subplans {
			r.RunSubplan(id)
		}
		for w := 0; w < windows; w++ {
			r.StartWindow(win)
			for j := 1; j <= pace; j++ {
				r.ArriveWindow(j, pace)
				for id := range r.Graph.Subplans {
					r.RunSubplan(id)
				}
			}
		}
		return r
	}

	// The shape contract the measurement depends on: at least half of all
	// post-seed firings must be skippable (idle part cones).
	r := run(b, Options{})
	total := int64(windows * pace * len(r.Graph.Subplans))
	if stats := r.ReuseStats(); stats.Skippable*2 < total {
		b.Fatalf("only %d of %d firings skippable; the benchmark lost its idle-cone shape", stats.Skippable, total)
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{{"reuse=on", Options{}}, {"reuse=off", Options{NoReuse: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, mode.opts)
			}
		})
	}
}
