package exec_test

import (
	"math/rand"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/delta"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/value"
)

// TestInterleavedSharedSides holds a plan whose member join and the join
// above it in the same subplan share one build side — t1 joined twice on
// c0 — to the differential oracle under every pass it has: paces, workers,
// decomposition, the scheduler, sharing on and off, window reuse and chunk
// sizes 1, 7 and 1 024. The parent's phase now runs interleaved with the
// child's, which applies its deltas to the shared side meanwhile; each
// handle reads at its own stream position, so neither may see the other's
// updates early.
func TestInterleavedSharedSides(t *testing.T) {
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindInt} }
	for seed := int64(1); seed <= 2; seed++ {
		w := &oracle.Workload{
			Seed: seed,
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{col("c0"), col("c1")}},
				{Name: "t1", Cols: []catalog.Column{col("c0"), col("c3")}},
			},
			SQL: []string{
				"SELECT a.c1, b.c3, c.c3 FROM t0 a, t1 b, t1 c WHERE a.c0 = b.c0 AND a.c0 = c.c0",
				"SELECT a.c0, SUM(c.c3) FROM t0 a, t1 b, t1 c WHERE a.c0 = b.c0 AND a.c0 = c.c0 GROUP BY a.c0",
			},
			Streams: map[string][]delta.Tuple{},
		}
		rng := rand.New(rand.NewSource(seed))
		for _, name := range []string{"t0", "t1"} {
			var live []delta.Tuple
			for i := 0; i < 150; i++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					k := rng.Intn(len(live))
					tup := live[k]
					live = append(live[:k], live[k+1:]...)
					tup.Sign = delta.Delete
					w.Streams[name] = append(w.Streams[name], tup)
					continue
				}
				tup := oracle.Ins(value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(50))))
				live = append(live, tup)
				w.Streams[name] = append(w.Streams[name], tup)
			}
		}
		qs, err := w.Bind()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := mqo.Build(qs)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			t.Fatal(err)
		}
		r, err := exec.NewDeltaRunner(g, exec.DeltaDataset{})
		if err != nil {
			t.Fatal(err)
		}
		if r.SharedMemberSides() == 0 {
			t.Fatal("no two joins of one subplan share a build side: the test has no teeth")
		}
		m, err := oracle.Check(w, oracle.DefaultCheckOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m != nil {
			t.Fatalf("seed %d: engine diverges from oracle: %v", seed, m)
		}
	}
}
