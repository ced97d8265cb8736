package exec

import (
	"fmt"
	"reflect"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// harness binds SQL queries into a subplan graph over a test catalog.
type harness struct {
	cat     *catalog.Catalog
	graph   *mqo.Graph
	queries []plan.Query
	// opts configures the runners built over this harness (harnessOpts at
	// the time newHarness ran).
	opts Options
}

// harnessOpts is what newHarness stamps on the harnesses it builds;
// overOptions sets it for the duration of a subtest.
var harnessOpts Options

// overOptions runs a harness scenario under the default Options and under
// three-tuple chunks, so a chunk-boundary bug cannot hide behind the default
// batch size.
func overOptions(t *testing.T, scenario func(*testing.T)) {
	for _, o := range []Options{{}, {Batch: 3}} {
		t.Run(fmt.Sprintf("batch=%d", o.batch()), func(t *testing.T) {
			harnessOpts = o
			defer func() { harnessOpts = Options{} }()
			scenario(t)
		})
	}
}

func newHarness(t testing.TB, sqls map[string]string, order []string) *harness {
	t.Helper()
	c := catalog.New()
	add := func(name string, cols ...catalog.Column) {
		if err := c.Add(&catalog.Table{Name: name, Columns: cols, Stats: catalog.TableStats{RowCount: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	add("lineitem",
		catalog.Column{Name: "l_partkey", Type: value.KindInt},
		catalog.Column{Name: "l_quantity", Type: value.KindFloat},
	)
	add("part",
		catalog.Column{Name: "p_partkey", Type: value.KindInt},
		catalog.Column{Name: "p_brand", Type: value.KindString},
		catalog.Column{Name: "p_size", Type: value.KindInt},
	)
	h := &harness{cat: c, opts: harnessOpts}
	for _, name := range order {
		n, err := plan.ParseAndBind(sqls[name], c)
		if err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
		h.queries = append(h.queries, plan.Query{Name: name, Root: n})
	}
	sp, err := mqo.Build(h.queries)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	h.graph = g
	return h
}

func (h *harness) run(t *testing.T, data Dataset, paces []int) (*Runner, *Report) {
	t.Helper()
	r, err := New(h.graph, InsertStream(data), h.opts)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if paces == nil {
		paces = make([]int, len(h.graph.Subplans))
		for i := range paces {
			paces[i] = 1
		}
	}
	rep, err := r.Run(paces)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r, rep
}

func lineitemRows(pairs ...[2]int64) []value.Row {
	rows := make([]value.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = value.Row{value.Int(p[0]), value.Float(float64(p[1]))}
	}
	return rows
}

func partRows(rows ...[3]interface{}) []value.Row {
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = value.Row{value.Int(int64(r[0].(int))), value.Str(r[1].(string)), value.Int(int64(r[2].(int)))}
	}
	return out
}

func TestScanFilterProject(t *testing.T) { overOptions(t, testScanFilterProject) }

func testScanFilterProject(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT p_brand FROM part WHERE p_size > 10",
	}, []string{"q"})
	data := Dataset{"part": partRows(
		[3]interface{}{1, "A", 5},
		[3]interface{}{2, "B", 15},
		[3]interface{}{3, "C", 20},
	)}
	r, rep := h.run(t, data, nil)
	got := r.SortedResults(0)
	want := []string{"B", "C"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results = %v, want %v", got, want)
	}
	if rep.TotalWork <= 0 {
		t.Error("no work recorded")
	}
}

func TestAggregateBatch(t *testing.T) { overOptions(t, testAggregateBatch) }

func testAggregateBatch(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	data := Dataset{"lineitem": lineitemRows([2]int64{1, 10}, [2]int64{1, 5}, [2]int64{2, 7})}
	r, _ := h.run(t, data, nil)
	got := r.SortedResults(0)
	want := []string{"1|15", "2|7"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results = %v, want %v", got, want)
	}
}

func TestAggregateIncrementalRetraction(t *testing.T) {
	overOptions(t, testAggregateIncrementalRetraction)
}

func testAggregateIncrementalRetraction(t *testing.T) {
	// Pace 2: the first execution emits groups, the second retracts and
	// re-emits updated groups. The net result must match batch, and the
	// delta log must contain delete tuples.
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	var pairs [][2]int64
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]int64{int64(i % 10), int64(i + 1)})
	}
	data := Dataset{"lineitem": lineitemRows(pairs...)}
	r, rep := h.run(t, data, []int{4})
	got := r.SortedResults(0)
	if len(got) != 10 {
		t.Errorf("groups = %d, want 10: %v", len(got), got)
	}
	// Eager execution costs more than batch on this workload.
	h2 := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	r2, batch := h2.run(t, data, []int{1})
	if !reflect.DeepEqual(got, r2.SortedResults(0)) {
		t.Errorf("incremental diverges from batch:\n%v\n%v", got, r2.SortedResults(0))
	}
	if rep.TotalWork <= batch.TotalWork {
		t.Errorf("pace-4 total work %d not greater than batch %d", rep.TotalWork, batch.TotalWork)
	}
	if rep.SubplanFinal[0] >= batch.SubplanFinal[0] {
		t.Errorf("pace-4 final work %d not smaller than batch %d", rep.SubplanFinal[0], batch.SubplanFinal[0])
	}
	// Deletes must appear in the output log.
	root := h.graph.QueryRootSubplan[0]
	deletes := 0
	for _, seg := range r.Execs[root.ID].Out.NewReader().ReadNew() {
		for _, tup := range seg {
			if tup.Sign == delta.Delete {
				deletes++
			}
		}
	}
	if deletes == 0 {
		t.Error("incremental aggregate produced no retractions")
	}
}

func TestJoinIncrementalMatchesBatch(t *testing.T) { overOptions(t, testJoinIncrementalMatchesBatch) }

func testJoinIncrementalMatchesBatch(t *testing.T) {
	sql := map[string]string{
		"q": `SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey`,
	}
	data := Dataset{
		"part": partRows(
			[3]interface{}{1, "A", 5},
			[3]interface{}{2, "B", 15},
		),
		"lineitem": lineitemRows([2]int64{1, 10}, [2]int64{2, 7}, [2]int64{1, 3}, [2]int64{9, 1}),
	}
	h1 := newHarness(t, sql, []string{"q"})
	r1, _ := h1.run(t, data, []int{1})
	h2 := newHarness(t, sql, []string{"q"})
	r2, _ := h2.run(t, data, []int{4})
	if !reflect.DeepEqual(r1.SortedResults(0), r2.SortedResults(0)) {
		t.Errorf("pace-4 join diverges from batch:\nbatch = %v\ninc   = %v",
			r1.SortedResults(0), r2.SortedResults(0))
	}
	want := []string{"A|10", "A|3", "B|7"}
	if got := r1.SortedResults(0); !reflect.DeepEqual(got, want) {
		t.Errorf("join results = %v, want %v", got, want)
	}
}

func TestSharedMarkerSemantics(t *testing.T) { overOptions(t, testSharedMarkerSemantics) }

func testSharedMarkerSemantics(t *testing.T) {
	// Two queries share the part scan; q2's predicate is a marker that
	// must not remove q1's tuples.
	h := newHarness(t, map[string]string{
		"q1": "SELECT p_brand FROM part",
		"q2": "SELECT p_brand FROM part WHERE p_size > 10",
	}, []string{"q1", "q2"})
	data := Dataset{"part": partRows(
		[3]interface{}{1, "A", 5},
		[3]interface{}{2, "B", 15},
	)}
	r, _ := h.run(t, data, nil)
	if got := r.SortedResults(0); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("q1 results = %v", got)
	}
	if got := r.SortedResults(1); !reflect.DeepEqual(got, []string{"B"}) {
		t.Errorf("q2 results = %v", got)
	}
}

func TestPaperExampleEndToEnd(t *testing.T) { overOptions(t, testPaperExampleEndToEnd) }

func testPaperExampleEndToEnd(t *testing.T) {
	// Q_A/Q_B shapes over a small dataset; shared subplan runs eagerly,
	// private subplans lazily.
	h := newHarness(t, map[string]string{
		"QA": `SELECT SUM(agg_l.sum_quantity) AS total FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey == l_partkey`,
		"QB": `SELECT AVG(agg_l.sum_quantity) AS avg_q FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey = l_partkey AND p_brand == 'B' AND p_size == 15`,
	}, []string{"QA", "QB"})
	data := Dataset{
		"part": partRows(
			[3]interface{}{1, "A", 5},
			[3]interface{}{2, "B", 15},
		),
		"lineitem": lineitemRows([2]int64{1, 10}, [2]int64{2, 7}, [2]int64{1, 3}, [2]int64{2, 5}),
	}
	if len(h.graph.Subplans) != 3 {
		t.Fatalf("subplans = %d\n%s", len(h.graph.Subplans), h.graph.Explain())
	}
	// Shared subplan eager (pace 4), private subplans batch.
	paces := make([]int, 3)
	for _, s := range h.graph.Subplans {
		if s.Queries.Count() == 2 {
			paces[s.ID] = 4
		} else {
			paces[s.ID] = 1
		}
	}
	r, _ := h.run(t, data, paces)
	// QA: sum over all joined sum_quantities = 13 (part1) + 12 (part2).
	if got := r.SortedResults(0); !reflect.DeepEqual(got, []string{"25"}) {
		t.Errorf("QA = %v, want [25]", got)
	}
	// QB: avg over part2 only = 12.
	if got := r.SortedResults(1); !reflect.DeepEqual(got, []string{"12"}) {
		t.Errorf("QB = %v, want [12]", got)
	}
}

func TestMinMaxRescanOnDelete(t *testing.T) { overOptions(t, testMinMaxRescanOnDelete) }

func testMinMaxRescanOnDelete(t *testing.T) {
	// MAX over a SUM: updating a group's sum retracts the old value from
	// the max aggregate; retracting the maximum forces a rescan (Q15's
	// non-incrementable shape).
	h := newHarness(t, map[string]string{
		"q": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq
			FROM lineitem GROUP BY l_partkey) t`,
	}, []string{"q"})
	data := Dataset{"lineitem": lineitemRows(
		[2]int64{1, 100}, // group 1 is the max
		[2]int64{2, 50},
		[2]int64{1, -60}, // arrives later: group 1 drops to 40, max becomes 50
		[2]int64{2, 5},
	)}
	h2 := newHarness(t, map[string]string{
		"q": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq
			FROM lineitem GROUP BY l_partkey) t`,
	}, []string{"q"})

	r1, repBatch := h.run(t, data, nil)
	paces := make([]int, len(h2.graph.Subplans))
	for i := range paces {
		paces[i] = 4
	}
	r2, repEager := h2.run(t, data, paces)
	if !reflect.DeepEqual(r1.SortedResults(0), r2.SortedResults(0)) {
		t.Errorf("max diverges: batch %v vs eager %v", r1.SortedResults(0), r2.SortedResults(0))
	}
	if got := r1.SortedResults(0); !reflect.DeepEqual(got, []string{"55"}) {
		t.Errorf("max = %v, want [55]", got)
	}
	if repEager.TotalWork <= repBatch.TotalWork {
		t.Errorf("eager max-over-sum should cost more: eager %d vs batch %d",
			repEager.TotalWork, repBatch.TotalWork)
	}
}

func TestRunnerRejectsBadPaces(t *testing.T) { overOptions(t, testRunnerRejectsBadPaces) }

func testRunnerRejectsBadPaces(t *testing.T) {
	h := newHarness(t, map[string]string{"q": "SELECT p_brand FROM part"}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run([]int{0}); err == nil {
		t.Error("pace 0 accepted")
	}
	if _, err := r.Run([]int{1, 1}); err == nil {
		t.Error("wrong pace count accepted")
	}
}

func TestQueryFinalWorkSumsSubplans(t *testing.T) { overOptions(t, testQueryFinalWorkSumsSubplans) }

func testQueryFinalWorkSumsSubplans(t *testing.T) {
	h := newHarness(t, map[string]string{
		"QA": `SELECT SUM(agg_l.sum_quantity) AS total FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey == l_partkey`,
		"QB": `SELECT AVG(agg_l.sum_quantity) AS avg_q FROM part p,
			(SELECT SUM(l_quantity) AS sum_quantity FROM lineitem GROUP BY l_partkey) agg_l
			WHERE p_partkey = l_partkey AND p_size == 15`,
	}, []string{"QA", "QB"})
	data := Dataset{
		"part":     partRows([3]interface{}{1, "A", 5}),
		"lineitem": lineitemRows([2]int64{1, 10}),
	}
	_, rep := h.run(t, data, nil)
	for q := 0; q < 2; q++ {
		var want int64
		for _, s := range h.graph.QuerySubplans(q) {
			want += rep.SubplanFinal[s.ID]
		}
		if rep.QueryFinal[q] != want {
			t.Errorf("QueryFinal[%d] = %d, want %d", q, rep.QueryFinal[q], want)
		}
	}
}
