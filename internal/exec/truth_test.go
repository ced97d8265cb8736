package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// truthPreds is the predicate pool the truth-column tests draw from: exact
// duplicates, and Int/Float constant pairs that render alike under
// expr.Canon. The multiplication pair also evaluates differently (Int
// multiplication wraps, Float's does not), so a key that ignored constant
// kinds would serve one query the other's outcomes.
var truthPreds = []string{
	"l_partkey > 2",
	"l_partkey > 2",
	"l_partkey * 999999 * 999999 * 999999 * 999999 > 0",
	"l_partkey * 999999.0 * 999999 * 999999 * 999999 > 0",
	"l_quantity < 5",
	"l_quantity < 5.0",
	"l_partkey = 3 OR l_quantity > 20",
	"l_partkey <> 1 AND l_quantity >= 4",
}

// truthHarness binds one filter query per predicate over lineitem.
func truthHarness(t testing.TB, preds []string) *harness {
	t.Helper()
	sqls := make(map[string]string, len(preds))
	order := make([]string, len(preds))
	for q, p := range preds {
		order[q] = fmt.Sprintf("q%d", q)
		sqls[order[q]] = "SELECT l_partkey, l_quantity FROM lineitem WHERE " + p
	}
	return newHarness(t, sqls, order)
}

// slotGraph builds the plan over the active slots of h's queries (inactive
// slots keep their query ids), shared or with every query in its own class.
func slotGraph(t testing.TB, h *harness, active []bool, perQuery bool) *mqo.Graph {
	t.Helper()
	qs := make([]plan.Query, len(h.queries))
	for q, on := range active {
		if on {
			qs[q] = h.queries[q]
		}
	}
	if perQuery {
		return perQueryGraph(t, qs)
	}
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

func randomLineitems(rng *rand.Rand, n int) []value.Row {
	pairs := make([][2]int64, n)
	for i := range pairs {
		pairs[i] = [2]int64{int64(rng.Intn(8)), int64(rng.Intn(50) - 10)}
	}
	return lineitemRows(pairs...)
}

// markerBits is what direct evaluation stamps on a scan of op: the scan's
// queries whose predicate, if any, holds on row.
func markerBits(op *mqo.Op, row value.Row) mqo.Bitset {
	var bits mqo.Bitset
	for _, q := range op.Queries.Members() {
		if p, ok := op.Preds[q]; !ok || p.Eval(row).Truth() {
			bits = bits.With(q)
		}
	}
	return bits
}

// checkTruthColumns verifies every truth column the runner's scans hold
// against direct evaluation of its predicate over the table log: bit p is
// the outcome on the row at log position p, for every p the column covers.
func checkTruthColumns(r *Runner) error {
	for _, se := range r.Execs {
		for op, x := range se.ops {
			s, ok := x.(*scanExec)
			if !ok {
				continue
			}
			var rows []value.Row
			for _, seg := range r.tables[op.Table.Name].NewReader().ReadNew() {
				for _, tup := range seg {
					rows = append(rows, tup.Row)
				}
			}
			for k, c := range s.cols {
				pred := op.Preds[s.markers[k].q]
				if c.n > len(rows) {
					return fmt.Errorf("column %s covers %d of %d rows", expr.Canon(pred), c.n, len(rows))
				}
				for p := 0; p < c.n; p++ {
					if c.bit(p) != pred.Eval(rows[p]).Truth() {
						return fmt.Errorf("column %s: bit %d is %v on %v", expr.Canon(pred), p, c.bit(p), rows[p])
					}
				}
			}
		}
	}
	return nil
}

// TestTruthKeySeparatesConstantKinds pins why a key carries constant kinds:
// the pool's Int and Float multiplications render alike but disagree.
func TestTruthKeySeparatesConstantKinds(t *testing.T) {
	h := truthHarness(t, truthPreds[2:4])
	var preds []expr.Expr
	for _, o := range h.graph.Plan.Ops {
		if o.Kind == mqo.KindScan {
			preds = append(preds, o.Preds[0], o.Preds[1])
		}
	}
	if len(preds) != 2 || expr.Canon(preds[0]) != expr.Canon(preds[1]) {
		t.Fatalf("want two predicates rendering alike on one scan, got %v", preds)
	}
	if truthKey("lineitem", preds[0]) == truthKey("lineitem", preds[1]) {
		t.Error("Int and Float constants share a truth key")
	}
	row := lineitemRows([2]int64{3, 0})[0]
	if preds[0].Eval(row).Truth() == preds[1].Eval(row).Truth() {
		t.Error("the pair evaluates alike on l_partkey = 3; the test no longer has teeth")
	}
}

// TestScanTruthsProperty drives scans directly over one growing table log,
// attached to one registry at random windows, with random predicates drawn
// from a pool of duplicates and look-alikes, at chunk sizes 1, 7 and 1024.
// Some scans start mid-log, so their first chunk lies past a fresh column's
// end. Every emitted tuple's bits must equal direct evaluation, and every
// column must agree with direct evaluation wherever it has filled — a column
// filled across a gap would misalign. Released scans' columns must all be
// reclaimed once every scan is gone.
func TestScanTruthsProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, batch := range []int{1, 7, 1024} {
			rng := rand.New(rand.NewSource(seed))
			preds := make([]string, 2+rng.Intn(4))
			for q := range preds {
				preds[q] = truthPreds[rng.Intn(len(truthPreds))]
			}
			h := truthHarness(t, preds)
			var ops []*mqo.Op
			for _, g := range []*mqo.Graph{h.graph, perQueryGraph(t, h.queries)} {
				for _, o := range g.Plan.Ops {
					if o.Kind == mqo.KindScan {
						ops = append(ops, o)
					}
				}
			}
			reg := NewRegistry(rng.Intn(4) > 0)
			log := buffer.NewLog("table:lineitem")
			type scan struct {
				s  *scanExec
				rd *buffer.Reader
			}
			var scans []scan
			var rows []value.Row
			for w := 0; w < 8; w++ {
				for a := rng.Intn(3); a > 0; a-- {
					s := newOperator(ops[rng.Intn(len(ops))], batch, reg, nil).(*scanExec)
					rd := log.NewReader()
					if rng.Intn(4) == 0 {
						rd = log.NewReaderAt(log.Len())
					}
					scans = append(scans, scan{s, rd})
				}
				arrivals := randomLineitems(rng, rng.Intn(40))
				rows = append(rows, arrivals...)
				log.Append(InsertStream(Dataset{"t": arrivals})["t"]...)
				for _, sc := range scans {
					from := sc.rd.Offset()
					sc.s.pos = from
					seq := sc.rd.ReadNew()
					out, _ := sc.s.process([]delta.Seq{seq})
					var want []delta.Tuple
					for i, row := range rows[from:] {
						if bits := markerBits(sc.s.op, row); !bits.Empty() {
							want = append(want, delta.Tuple{Row: rows[from+i], Bits: bits, Sign: delta.Insert})
						}
					}
					if len(out) != len(want) || (len(out) > 0 && !reflect.DeepEqual(out, want)) {
						t.Fatalf("seed %d batch %d window %d: scan of %v from %d emitted %v, want %v",
							seed, batch, w, sc.s.op.Queries, from, out, want)
					}
					for k, c := range sc.s.cols {
						pred := sc.s.op.Preds[sc.s.markers[k].q]
						for p := 0; p < c.n; p++ {
							if c.bit(p) != pred.Eval(rows[p]).Truth() {
								t.Fatalf("seed %d batch %d window %d: column %s bit %d wrong", seed, batch, w, expr.Canon(pred), p)
							}
						}
					}
				}
				if len(scans) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(scans))
					scans[i].s.release(reg)
					scans = append(scans[:i], scans[i+1:]...)
				}
				handles := 0
				for _, sc := range scans {
					handles += sc.s.handles()
				}
				if err := reg.checkHandles(handles); err != nil {
					t.Fatalf("seed %d batch %d window %d: %v", seed, batch, w, err)
				}
			}
			for _, sc := range scans {
				sc.s.release(reg)
			}
			reg.Sweep()
			if st := reg.TruthStats(); st.Live != 0 || st.Pending != 0 || st.Bits != 0 {
				t.Fatalf("seed %d batch %d: columns retained after every scan released: %+v", seed, batch, st)
			}
		}
	}
}

// TestTruthColumnNeverFillsAcrossGap starts a scan mid-log on a fresh
// column: it evaluates its rows without recording them. A scan from the log's
// start then fills the column, and the mid-log scan's next rows are served.
func TestTruthColumnNeverFillsAcrossGap(t *testing.T) {
	h := truthHarness(t, truthPreds[:1])
	op := h.graph.Subplans[0].Scans()[0]
	reg := NewRegistry(true)
	log := buffer.NewLog("table:lineitem")
	rng := rand.New(rand.NewSource(1))
	log.Append(InsertStream(Dataset{"t": randomLineitems(rng, 10)})["t"]...)
	run := func(s *scanExec, rd *buffer.Reader) {
		s.pos = rd.Offset()
		s.process([]delta.Seq{rd.ReadNew()})
	}
	late := newOperator(op, 4, reg, nil).(*scanExec)
	lateRd := log.NewReaderAt(6)
	run(late, lateRd)
	if st := reg.TruthStats(); st.Bits != 0 || st.Evaluated != 4 {
		t.Fatalf("mid-log scan filled its column across the gap: %+v", st)
	}
	early := newOperator(op, 4, reg, nil).(*scanExec)
	earlyRd := log.NewReader()
	run(early, earlyRd)
	if st := reg.TruthStats(); st.Bits != 10 || st.Evaluated != 14 {
		t.Fatalf("after a scan from the start: %+v, want 10 bits and 14 rows evaluated", st)
	}
	log.Append(InsertStream(Dataset{"t": randomLineitems(rng, 5)})["t"]...)
	run(early, earlyRd)
	run(late, lateRd)
	if st := reg.TruthStats(); st.Bits != 15 || st.Evaluated != 19 || st.Served != 5 {
		t.Fatalf("after both scans read on: %+v, want 15 bits, 19 evaluated, 5 served", st)
	}
}

// TestScanServedAllocs: a chunk served from a truth column allocates nothing.
func TestScanServedAllocs(t *testing.T) {
	h := truthHarness(t, truthPreds[:3])
	op := h.graph.Subplans[0].Scans()[0]
	reg := NewRegistry(true)
	log := buffer.NewLog("table:lineitem")
	log.Append(InsertStream(Dataset{"t": randomLineitems(rand.New(rand.NewSource(2)), 3000)})["t"]...)
	s := newOperator(op, 1024, reg, nil).(*scanExec)
	in := []delta.Seq{log.NewReader().ReadNew()}
	s.process(in) // fills the columns
	before := reg.TruthStats()
	if avg := testing.AllocsPerRun(50, func() {
		s.pos = 0
		s.process(in)
	}); avg > 0 {
		t.Errorf("served scan allocated %.2f allocs/run, want 0", avg)
	}
	if st := reg.TruthStats(); st.Evaluated != before.Evaluated {
		t.Errorf("served scan evaluated %d rows", st.Evaluated-before.Evaluated)
	}
}

// TestTruthColumnsChurnProperty runs random admit/retire schedules over the
// pool's predicates through Graft — scans attach at construction and during
// grafts, shared or one per query — at chunk sizes 1, 7 and 1024. The shared
// run and the NoShare run, whose scans keep private columns and so evaluate
// every predicate themselves, must log byte-identical tuples in every subplan
// and report identical work after every window; every column must agree with
// direct evaluation, and the handle invariant must hold after every graft.
func TestTruthColumnsChurnProperty(t *testing.T) {
	const windows = 6
	for seed := int64(0); seed < 24; seed++ {
		for _, batch := range []int{1, 7, 1024} {
			rng := rand.New(rand.NewSource(seed))
			preds := make([]string, 2+rng.Intn(4))
			admit, retire := make([]int, len(preds)), make([]int, len(preds))
			for q := range preds {
				preds[q] = truthPreds[rng.Intn(len(truthPreds))]
				if q > 0 { // query 0 stays, so no revision is empty
					admit[q] = rng.Intn(windows)
					retire[q] = admit[q] + 1 + rng.Intn(windows)
				} else {
					retire[q] = windows
				}
			}
			perQuery := rng.Intn(3) == 0
			h := truthHarness(t, preds)
			graphAt := func(k int) *mqo.Graph {
				active := make([]bool, len(preds))
				for q := range active {
					active[q] = admit[q] <= k && k < retire[q]
				}
				return slotGraph(t, h, active, perQuery)
			}
			var runners [2]*Runner
			for i, noShare := range []bool{false, true} {
				r, err := New(graphAt(0), DeltaDataset{}, Options{Batch: batch, NoShare: noShare})
				if err != nil {
					t.Fatal(err)
				}
				runners[i] = r
			}
			g := graphAt(0)
			for k := 0; k < windows; k++ {
				arrivals := InsertStream(Dataset{"lineitem": randomLineitems(rng, rng.Intn(30))})
				if k > 0 {
					g = graphAt(k)
				}
				var logs [2][]string
				for i, r := range runners {
					if k > 0 {
						if _, err := r.Graft(g, GraftOptions{}); err != nil {
							t.Fatal(err)
						}
						if err := r.CheckArrangements(); err != nil {
							t.Fatalf("seed %d batch %d window %d: %v", seed, batch, k, err)
						}
					}
					r.StartWindow(arrivals)
					r.ArriveWindow(1, 1)
					for id := range g.Subplans {
						r.RunSubplan(id)
					}
					if err := checkTruthColumns(r); err != nil {
						t.Fatalf("seed %d batch %d window %d: %v", seed, batch, k, err)
					}
					for _, se := range r.Execs {
						for _, seg := range se.Out.NewReader().ReadNew() {
							for _, tup := range seg {
								logs[i] = append(logs[i], fmt.Sprintf("%d:%v", se.Sub.ID, tup))
							}
						}
					}
				}
				if !reflect.DeepEqual(logs[0], logs[1]) {
					t.Fatalf("seed %d batch %d window %d: shared and NoShare logs differ", seed, batch, k)
				}
				if a, b := runners[0].ReportNow(), runners[1].ReportNow(); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d batch %d window %d: reports differ: %+v vs %+v", seed, batch, k, a, b)
				}
			}
		}
	}
}

// TestGraftTruthColumns follows the truth-column accounting through grafts
// over a shared lineitem scan: a retirement's rebuilt scan evaluates no
// history, an admission whose predicate is already live evaluates none
// either, and one with a new predicate evaluates exactly the table's history
// once; the column only a retired query used is reclaimed at the next seal.
func TestGraftTruthColumns(t *testing.T) { overOptions(t, testGraftTruthColumns) }

func testGraftTruthColumns(t *testing.T) {
	h := truthHarness(t, []string{
		"l_partkey > 2",
		"l_quantity < 5",
		"l_partkey > 2",
		"l_partkey * 999999.0 * 999999 * 999999 * 999999 > 0",
	})
	rng := rand.New(rand.NewSource(3))
	graph := func(slots ...int) *mqo.Graph {
		active := make([]bool, len(h.queries))
		for _, q := range slots {
			active[q] = true
		}
		return slotGraph(t, h, active, false)
	}
	r, err := New(graph(0, 1), DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		r.StartWindow(InsertStream(Dataset{"lineitem": randomLineitems(rng, 25)}))
		r.ArriveWindow(1, 1)
		for id := range r.Graph.Subplans {
			r.RunSubplan(id)
		}
	}
	graft := func(what string, g *mqo.Graph, evaluated, served int64) TruthStats {
		t.Helper()
		before := r.TruthStats()
		if _, err := r.Graft(g, GraftOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckArrangements(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := checkTruthColumns(r); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := r.TruthStats()
		if e, s := after.Evaluated-before.Evaluated, after.Served-before.Served; e != evaluated || s != served {
			t.Errorf("%s: evaluated %d rows and served %d, want %d and %d", what, e, s, evaluated, served)
		}
		return after
	}
	for i := 0; i < 3; i++ {
		step()
	}
	rows := int64(r.tables["lineitem"].Len())
	if st := r.TruthStats(); st.Live != 2 || st.Evaluated != 2*rows || st.Served != 0 {
		t.Fatalf("before any graft: %+v, want 2 live columns and %d rows evaluated", st, 2*rows)
	}

	// Retire query 1: the rebuilt scan reads query 0's history from its
	// column, and query 1's column tombstones until the next seal.
	st := graft("retire", graph(0), 0, rows)
	if st.Live != 1 || st.Pending != 1 || st.Bits != 2*rows {
		t.Errorf("retire: %+v, want 1 live and 1 pending column holding %d bits", st, 2*rows)
	}
	step()
	if st := r.TruthStats(); st.Pending != 1 {
		t.Errorf("column reclaimed before its window sealed: %+v", st)
	}
	step() // seals the window after the graft
	rows = int64(r.tables["lineitem"].Len())
	if st := r.TruthStats(); st.Live != 1 || st.Pending != 0 || st.Bits != rows {
		t.Errorf("after the next seal: %+v, want one live column of %d bits", st, rows)
	}

	// Admit query 2, whose predicate query 0's column already holds.
	graft("admit live predicate", graph(0, 2), 0, 2*rows)
	step()
	rows = int64(r.tables["lineitem"].Len())
	// Admit query 3 with a new predicate: its history evaluates once.
	st = graft("admit new predicate", graph(0, 2, 3), rows, 2*rows)
	if st.Live != 2 || st.Bits != 2*rows {
		t.Errorf("admit new predicate: %+v, want 2 live columns of %d bits each", st, rows)
	}
}

// TestParallelScansShareTruthColumns runs two per-query scans of one table
// with the same predicate in one wave on four workers (both fill and read
// the shared column; -race checks the locking). Results and reports must
// equal the one-worker and NoShare runs, and every row's outcome must be
// evaluated exactly once per distinct predicate.
func TestParallelScansShareTruthColumns(t *testing.T) {
	h := truthHarness(t, []string{"l_partkey > 2", "l_partkey > 2", "l_quantity < 5"})
	g := perQueryGraph(t, h.queries)
	rng := rand.New(rand.NewSource(4))
	data := InsertStream(Dataset{"lineitem": randomLineitems(rng, 5000)})
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 1 + i%3
	}
	var ref *Report
	var refResults [][]string
	for _, run := range []struct {
		workers int
		opts    Options
	}{{1, Options{}}, {4, Options{}}, {4, Options{Batch: 7}}, {4, Options{NoShare: true}}} {
		r, err := New(g, data, run.opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunParallel(paces, run.workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckArrangements(); err != nil {
			t.Fatal(err)
		}
		rows := int64(len(data["lineitem"]))
		st := r.TruthStats()
		if !run.opts.NoShare && (st.Live != 2 || st.Evaluated != 2*rows || st.Served != rows) {
			t.Errorf("%+v: %+v, want 2 live columns, %d rows evaluated and %d served", run, st, 2*rows, rows)
		}
		results := make([][]string, len(h.queries))
		for q := range h.queries {
			results[q] = r.SortedResults(q)
		}
		if ref == nil {
			ref, refResults = rep, results
			continue
		}
		if !reportsEqual(ref, rep) || !reflect.DeepEqual(results, refResults) {
			t.Errorf("%+v: results or report differ from one worker", run)
		}
	}
}
