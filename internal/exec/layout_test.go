package exec_test

// Join output layouts: what each join keeps, that every consumer compiles
// against what its producer really emits, and that a graft refuses to adopt
// a join whose layout changed under it.

import (
	"reflect"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/value"
)

func graphOf(t *testing.T, qs []plan.Query) *mqo.Graph {
	t.Helper()
	sp, err := mqo.Build(qs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestJoinLayoutQ3 pins Q3's join layouts: the customer ⋈ orders join keeps
// only the orders key the lineitem join probes with and the two order
// columns the aggregate groups by, and the top join adds what the revenue
// sum reads.
func TestJoinLayoutQ3(t *testing.T) {
	cat, err := tpch.NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.NewDeltaRunner(graphOf(t, bound), exec.DeltaDataset{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"o_orderkey", "o_orderdate", "o_shippriority"},
		{"o_orderdate", "o_shippriority", "l_orderkey", "l_extendedprice", "l_discount"},
	}
	if got := r.JoinLayouts(); !reflect.DeepEqual(got, want) {
		t.Errorf("Q3 join layouts = %v, want %v", got, want)
	}
}

// TestLayoutsCoverConsumers checks, on the 22-query IShare plan and on 200
// oracle graphs, that every column a consumer's compiled expression reads is
// in the layout its producer emits, that query roots, scans, projects and
// aggregates emit their full schema, and that executed output rows are as
// wide as their layouts.
func TestLayoutsCoverConsumers(t *testing.T) {
	joins, narrowed := 0, 0
	for _, r := range runJob(t, 0.01, exec.Options{}) {
		if err := r.CheckLayouts(); err != nil {
			t.Fatalf("IShare plan: %v", err)
		}
		layouts := r.JoinLayouts()
		for _, o := range r.Graph.Plan.Ops {
			if o.Kind == mqo.KindJoin {
				if len(layouts[joins]) < len(o.Schema()) {
					narrowed++
				}
				joins++
			}
		}
	}
	if narrowed == 0 {
		t.Fatalf("none of the IShare plan's %d joins is narrowed: the check has no teeth", joins)
	}
	for seed := int64(0); seed < 200; seed++ {
		w := oracle.Generate(seed, oracle.DefaultOptions())
		qs, err := w.Bind()
		if err != nil {
			t.Fatal(err)
		}
		g := graphOf(t, qs)
		r, err := exec.NewDeltaRunner(g, exec.DeltaDataset(w.Streams))
		if err != nil {
			t.Fatal(err)
		}
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + i%3
		}
		if _, err := r.Run(paces); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckLayouts(); err != nil {
			t.Fatalf("seed %d %v: %v", seed, w.SQL, err)
		}
	}
}

// TestGraftVetoesLayoutChange retires a query and admits another into its
// slot at one boundary. The shared join keeps its query bitset and so its
// state signature, but the newcomer reads other columns, so its layout
// changes: the graft must rebuild the join and, because the rebuilt join is
// no scan/project cone its old reader could be re-pointed at, the surviving
// query's root too — and end exactly where a from-scratch run of the new
// plan does.
func TestGraftVetoesLayoutChange(t *testing.T) {
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindInt} }
	w := &oracle.Workload{
		Tables: []oracle.TableDef{
			{Name: "t0", Cols: []catalog.Column{col("c0"), col("c1"), col("c2")}},
			{Name: "t1", Cols: []catalog.Column{col("c0"), col("c3")}},
		},
		SQL: []string{
			"SELECT t0.c1, t1.c3 FROM t0, t1 WHERE t0.c0 = t1.c0",
			"SELECT t0.c2 FROM t0, t1 WHERE t0.c0 = t1.c0",
			"SELECT t1.c3, t0.c1 FROM t0, t1 WHERE t0.c0 = t1.c0",
		},
	}
	qs, err := w.Bind()
	if err != nil {
		t.Fatal(err)
	}
	before := graphOf(t, []plan.Query{qs[0], qs[1]})
	after := graphOf(t, []plan.Query{qs[0], qs[2]}) // qs[2] takes qs[1]'s slot
	win := func(k int64) exec.DeltaDataset {
		return exec.DeltaDataset{
			"t0": {oracle.Ins(value.Int(k), value.Int(10+k), value.Int(20+k)), oracle.Ins(value.Int(k+1), value.Int(30), value.Int(40))},
			"t1": {oracle.Ins(value.Int(k), value.Int(50+k)), oracle.Ins(value.Int(k+1), value.Int(60))},
		}
	}
	runWindow := func(r *exec.Runner, g *mqo.Graph, arrivals exec.DeltaDataset) {
		r.StartWindow(arrivals)
		r.ArriveWindow(1, 1)
		for id := range g.Subplans {
			r.RunSubplan(id)
		}
	}

	r, err := exec.NewDeltaRunner(before, exec.DeltaDataset{})
	if err != nil {
		t.Fatal(err)
	}
	runWindow(r, before, win(1))
	gs, err := r.Graft(after, exec.GraftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The join's subplan keeps its state signature but not its layout, q0's
	// root subplan reads the rebuilt join, and q2's root is new.
	if gs.Adopted != 0 || gs.Rebuilt != len(after.Subplans) {
		t.Errorf("graft stats %+v, want 0 adopted and all %d rebuilt", gs, len(after.Subplans))
	}
	runWindow(r, after, win(2))
	if err := r.CheckLayouts(); err != nil {
		t.Fatal(err)
	}

	ref, err := exec.NewDeltaRunner(after, exec.DeltaDataset{})
	if err != nil {
		t.Fatal(err)
	}
	runWindow(ref, after, win(1))
	runWindow(ref, after, win(2))
	for q := 0; q < 2; q++ {
		if got, want := r.SortedResults(q), ref.SortedResults(q); !reflect.DeepEqual(got, want) {
			t.Errorf("query slot %d: grafted %v, from scratch %v", q, got, want)
		}
	}
	if got, want := r.ReportNow(), ref.ReportNow(); !reflect.DeepEqual(got, want) {
		t.Errorf("grafted report %+v, from scratch %+v", got, want)
	}
}
