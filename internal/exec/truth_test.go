package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// truthPreds is the predicate pool the truth-column tests draw from: exact
// duplicates, and Int/Float constant pairs that print alike. The
// multiplication pair also evaluates differently (Int multiplication wraps,
// Float's does not), so a key that merged them would serve one query the
// other's outcomes.
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
		for _, n := range se.nodes {
			op, x := n.op, n.x
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

// TestTruthKeySeparatesConstantKinds pins that the pool's Int and Float
// multiplications, which print alike but disagree, get distinct truth keys:
// expr.Canon renders the integral Float constant with its decimal point.
func TestTruthKeySeparatesConstantKinds(t *testing.T) {
	h := truthHarness(t, truthPreds[2:4])
	var preds []expr.Expr
	for _, o := range h.graph.Plan.Ops {
		if o.Kind == mqo.KindScan {
			preds = append(preds, o.Preds[0], o.Preds[1])
		}
	}
	if len(preds) != 2 || preds[0].String() != preds[1].String() {
		t.Fatalf("want two predicates printing alike on one scan, got %v", preds)
	}
	if truthKey("lineitem", preds[0]) == truthKey("lineitem", preds[1]) {
		t.Error("Int and Float constants share a truth key")
	}
	row := lineitemRows([2]int64{3, 0})[0]
	if preds[0].Eval(row).Truth() == preds[1].Eval(row).Truth() {
		t.Error("the pair evaluates alike on l_partkey = 3; the test no longer has teeth")
	}
}

// viewWant is what direct evaluation yields to a reader of op's view
// serving want over the table tuples rows: each row some query of want
// passes, with those queries' bits, and the count of rows only the scan's
// other queries pass.
func viewWant(op *mqo.Op, want mqo.Bitset, rows []delta.Tuple) (out []delta.Tuple, skipped int64) {
	for _, tup := range rows {
		bits := markerBits(op, tup.Row)
		switch {
		case !bits.Intersect(want).Empty():
			out = append(out, delta.Tuple{Row: tup.Row, Bits: bits.Intersect(want), Sign: tup.Sign})
		case !bits.Empty():
			skipped++
		}
	}
	return out, skipped
}

// drain reads one execution's worth of a view reader into a fresh slice and
// returns it with the reader's skipped count.
func drain(v *viewReader) ([]delta.Tuple, int64) {
	v.open()
	var out []delta.Tuple
	for tup, _, ok := v.Next(); ok; tup, _, ok = v.Next() {
		if len(tup) > v.size {
			panic(fmt.Sprintf("chunk of %d tuples from a reader of size %d", len(tup), v.size))
		}
		out = append(out, tup...)
	}
	skipped := v.close()
	return out, skipped
}

// randomStream returns n lineitem arrivals, about a fifth of them deletions
// of rows arrived earlier (in rows, which it extends).
func randomStream(rng *rand.Rand, n int, rows *[]value.Row) []delta.Tuple {
	var out []delta.Tuple
	for _, row := range randomLineitems(rng, n) {
		if len(*rows) > 0 && rng.Intn(5) == 0 {
			out = append(out, delta.Tuple{Row: (*rows)[rng.Intn(len(*rows))], Bits: mqo.Bitset(^uint64(0)), Sign: delta.Delete})
			continue
		}
		*rows = append(*rows, row)
		out = append(out, InsertTuple(row))
	}
	return out
}

// TestScanTruthsProperty drives scans and view readers directly over one
// growing table log with deletions, attached to one registry at random
// windows, with random predicates drawn from a pool of duplicates and
// look-alikes, at chunk sizes 1, 7 and 1024. Some scans start mid-log, so
// their first firing lies past a fresh column's end; readers serve random
// subsets of their scan's queries from the scan's cursor. Every firing's Work
// and every reader's tuples and skipped count must equal direct evaluation,
// and every column must agree with direct evaluation wherever it has filled
// — a column filled across a gap would misalign. Released scans' columns
// must all be reclaimed once every scan is gone.
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
			var scans []*scanExec
			var holders []*holder
			var readers []*viewReader
			var scratch viewScratch // shared, as an executor's readers share one
			var logged []delta.Tuple
			var rows []value.Row
			for w := 0; w < 8; w++ {
				for a := rng.Intn(3); a > 0; a-- {
					h := &holder{reg: reg}
					s := newScanExec(ops[rng.Intn(len(ops))], batch, h, log, &viewScratch{})
					if rng.Intn(4) == 0 {
						s.pos = log.Len()
					}
					scans = append(scans, s)
					holders = append(holders, h)
				}
				for a := rng.Intn(3); a > 0 && len(scans) > 0; a-- {
					s := scans[rng.Intn(len(scans))]
					readers = append(readers, newViewReader(s, mqo.Bitset(rng.Uint64()), batch, s.pos, &scratch))
				}
				arrivals := randomStream(rng, rng.Intn(40), &rows)
				logged = append(logged, arrivals...)
				log.Append(arrivals...)
				for _, s := range scans {
					from := s.pos
					want, _ := viewWant(s.op, s.op.Queries, logged[from:])
					if got := s.fire(); got != (Work{Tuples: int64(len(logged) - from), Output: int64(len(want))}) {
						t.Fatalf("seed %d batch %d window %d: scan of %v from %d: %v, want %d tuples and %d output",
							seed, batch, w, s.op.Queries, from, got, len(logged)-from, len(want))
					}
					for k, c := range s.cols {
						pred := s.op.Preds[s.markers[k].q]
						for p := 0; p < c.n; p++ {
							if c.bit(p) != pred.Eval(logged[p].Row).Truth() {
								t.Fatalf("seed %d batch %d window %d: column %s bit %d wrong", seed, batch, w, expr.Canon(pred), p)
							}
						}
					}
				}
				for _, v := range readers {
					from := v.off
					got, skipped := drain(v)
					want, wantSkipped := viewWant(v.scan.op, v.want, logged[from:v.scan.pos])
					if !reflect.DeepEqual(got, want) || skipped != wantSkipped {
						t.Fatalf("seed %d batch %d window %d: reader of %v for %v from %d: %v skipping %d, want %v skipping %d",
							seed, batch, w, v.scan.op.Queries, v.want, from, got, skipped, want, wantSkipped)
					}
				}
				if len(scans) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(scans))
					holders[i].release()
					readers = slices.DeleteFunc(readers, func(v *viewReader) bool { return v.scan == scans[i] })
					scans = append(scans[:i], scans[i+1:]...)
					holders = append(holders[:i], holders[i+1:]...)
				}
				handles := 0
				for _, h := range holders {
					handles += len(h.held)
				}
				if err := reg.checkHandles(handles); err != nil {
					t.Fatalf("seed %d batch %d window %d: %v", seed, batch, w, err)
				}
			}
			for _, h := range holders {
				h.release()
			}
			if st := reg.TruthStats(); st.Live != 0 || st.Bits != 0 {
				t.Fatalf("seed %d batch %d: columns retained after every scan released: %+v", seed, batch, st)
			}
		}
	}
}

// TestTruthColumnNeverFillsAcrossGap starts a scan mid-log on a fresh
// column: its firing fills the column from the column's end, not from its own
// cursor, so the column never has a gap and its readers can always be
// served. A scan from the log's start then reads the column without
// evaluating, and the next rows are evaluated once.
func TestTruthColumnNeverFillsAcrossGap(t *testing.T) {
	h := truthHarness(t, truthPreds[:1])
	op := h.graph.Subplans[0].Scans()[0]
	reg := NewRegistry(true)
	log := buffer.NewLog("table:lineitem")
	rng := rand.New(rand.NewSource(1))
	log.Append(InsertStream(Dataset{"t": randomLineitems(rng, 10)})["t"]...)
	late := newScanExec(op, 4, &holder{reg: reg}, log, &viewScratch{})
	late.pos = 6
	if w := late.fire(); w.Tuples != 4 {
		t.Fatalf("mid-log scan covered %d rows, want 4", w.Tuples)
	}
	if st := reg.TruthStats(); st.Bits != 10 || st.Evaluated != 10 || st.Served != 0 {
		t.Fatalf("mid-log scan on a fresh column: %+v, want 10 bits evaluated from the column's start", st)
	}
	early := newScanExec(op, 4, &holder{reg: reg}, log, &viewScratch{})
	early.fire()
	if st := reg.TruthStats(); st.Bits != 10 || st.Evaluated != 10 || st.Served != 10 {
		t.Fatalf("after a scan from the start: %+v, want 10 bits, 10 evaluated and 10 served", st)
	}
	log.Append(InsertStream(Dataset{"t": randomLineitems(rng, 5)})["t"]...)
	early.fire()
	late.fire()
	if st := reg.TruthStats(); st.Bits != 15 || st.Evaluated != 15 || st.Served != 15 {
		t.Fatalf("after both scans read on: %+v, want 15 bits, 15 evaluated, 15 served", st)
	}
}

// TestScanServedAllocs: a steady-state firing served from its truth columns
// and a view read over it allocate nothing.
func TestScanServedAllocs(t *testing.T) {
	h := truthHarness(t, truthPreds[:3])
	op := h.graph.Subplans[0].Scans()[0]
	reg := NewRegistry(true)
	log := buffer.NewLog("table:lineitem")
	log.Append(InsertStream(Dataset{"t": randomLineitems(rand.New(rand.NewSource(2)), 3000)})["t"]...)
	s := newScanExec(op, 1024, &holder{reg: reg}, log, &viewScratch{})
	v := newViewReader(s, mqo.Bit(2), 1024, 0, &viewScratch{})
	read := func() {
		s.pos, v.off = 0, 0
		s.fire()
		v.open()
		for _, _, ok := v.Next(); ok; _, _, ok = v.Next() {
		}
		v.close()
	}
	read() // fills the columns and the reader's scratch
	before := reg.TruthStats()
	if avg := testing.AllocsPerRun(50, read); avg > 0 {
		t.Errorf("served firing and view read allocated %.2f allocs/run, want 0", avg)
	}
	st := reg.TruthStats()
	if st.Evaluated != before.Evaluated {
		t.Errorf("served scan evaluated %d rows", st.Evaluated-before.Evaluated)
	}
	if st.ViewRows == before.ViewRows || st.ViewSkipped == before.ViewSkipped {
		t.Errorf("reads yielded %d rows and skipped %d: the test has no teeth", st.ViewRows-before.ViewRows, st.ViewSkipped-before.ViewSkipped)
	}
}

// TestViewReadHoldsOneChunk reads a 100k-row table through one view at batch
// pace, at the default chunk size and with one chunk per input: the reader
// yields and retains at most one chunk of scratch, however long the range.
func TestViewReadHoldsOneChunk(t *testing.T) {
	h := truthHarness(t, truthPreds[:2])
	op := h.graph.Subplans[0].Scans()[0]
	log := buffer.NewLog("table:lineitem")
	rows := InsertStream(Dataset{"t": randomLineitems(rand.New(rand.NewSource(3)), 100_000)})["t"]
	log.Append(rows...)
	want, _ := viewWant(op, op.Queries, rows)
	for _, batch := range []int{0, -1} {
		s := newScanExec(op, batch, &holder{reg: NewRegistry(true)}, log, &viewScratch{})
		s.fire()
		v := newViewReader(s, op.Queries, batch, 0, &viewScratch{})
		got, _ := drain(v) // drain also checks every chunk's size
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: read %d rows, want %d", batch, len(got), len(want))
		}
		if cap(v.sc.tup) > vec.DefaultBatch || cap(v.sc.bits) > vec.DefaultBatch || cap(v.sc.yw) > vec.DefaultBatch/64+2 {
			t.Errorf("batch %d: a read of %d rows holds %d tuples, %d bits and %d words of scratch",
				batch, len(rows), cap(v.sc.tup), cap(v.sc.bits), cap(v.sc.yw))
		}
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
						for _, tup := range se.outputTuples() {
							logs[i] = append(logs[i], fmt.Sprintf("%d:%v", se.Sub.ID, tup))
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
// once; the column only a retired query used leaves with the graft.
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
	// column, and query 1's column leaves the registry with the graft.
	st := graft("retire", graph(0), 0, rows)
	if st.Live != 1 || st.Bits != rows {
		t.Errorf("retire: %+v, want one live column of %d bits", st, rows)
	}
	step()
	step()
	rows = int64(r.tables["lineitem"].Len())
	if st := r.TruthStats(); st.Live != 1 || st.Bits != rows {
		t.Errorf("two windows after the retirement: %+v, want one live column of %d bits", st, rows)
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
