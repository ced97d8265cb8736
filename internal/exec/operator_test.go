package exec

import (
	"reflect"
	"strings"
	"testing"

	"ishare/internal/catalog"
	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

func TestWorkAccounting(t *testing.T) {
	w := Work{Tuples: 1, State: 2, Output: 3, Rescan: 4, Fixed: 5}
	if w.Total() != 15 {
		t.Errorf("Total = %d", w.Total())
	}
	var sum Work
	sum.Add(w)
	sum.Add(w)
	if sum.Total() != 30 {
		t.Errorf("Add total = %d", sum.Total())
	}
	if s := w.String(); !strings.Contains(s, "total=15") {
		t.Errorf("String = %q", s)
	}
}

func TestCrossJoinScalarSubquery(t *testing.T) { overOptions(t, testCrossJoinScalarSubquery) }

func testCrossJoinScalarSubquery(t *testing.T) {
	// QB's shape: a scalar aggregate cross-joined with a table and
	// filtered by a non-equi predicate.
	h := newHarness(t, map[string]string{
		"q": `SELECT p_partkey FROM part,
			(SELECT AVG(l_quantity) AS avg_q FROM lineitem) a
			WHERE p_size > avg_q`,
	}, []string{"q"})
	data := Dataset{
		"part": partRows(
			[3]interface{}{1, "A", 5},
			[3]interface{}{2, "B", 50},
		),
		"lineitem": lineitemRows([2]int64{1, 10}, [2]int64{1, 30}),
	}
	r, _ := h.run(t, data, nil)
	// avg = 20; only part 2 (size 50) qualifies.
	if got := r.SortedResults(0); !reflect.DeepEqual(got, []string{"2"}) {
		t.Errorf("results = %v", got)
	}
}

func TestCrossJoinIncrementalMatchesBatch(t *testing.T) {
	overOptions(t, testCrossJoinIncrementalMatchesBatch)
}

func testCrossJoinIncrementalMatchesBatch(t *testing.T) {
	sqls := map[string]string{
		"q": `SELECT p_partkey FROM part,
			(SELECT AVG(l_quantity) AS avg_q FROM lineitem) a
			WHERE p_size > avg_q`,
	}
	data := Dataset{
		"part": partRows(
			[3]interface{}{1, "A", 5},
			[3]interface{}{2, "B", 50},
			[3]interface{}{3, "C", 25},
		),
		"lineitem": lineitemRows([2]int64{1, 10}, [2]int64{1, 30}, [2]int64{2, 20}, [2]int64{3, 24}),
	}
	h1 := newHarness(t, sqls, []string{"q"})
	r1, _ := h1.run(t, data, nil)
	h2 := newHarness(t, sqls, []string{"q"})
	paces := make([]int, len(h2.graph.Subplans))
	for i := range paces {
		paces[i] = 4
	}
	r2, _ := h2.run(t, data, paces)
	if !reflect.DeepEqual(r1.SortedResults(0), r2.SortedResults(0)) {
		t.Errorf("cross join diverges: %v vs %v", r1.SortedResults(0), r2.SortedResults(0))
	}
}

// scansOfWidth returns scans of tables with the given column counts: the
// children a hand-built join needs for its full-width layout.
func scansOfWidth(widths ...int) []*mqo.Op {
	out := make([]*mqo.Op, len(widths))
	for i, w := range widths {
		out[i] = &mqo.Op{Payload: mqo.Payload{Kind: mqo.KindScan, Table: &catalog.Table{Columns: make([]catalog.Column, w)}}}
	}
	return out
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	// NULL never equi-joins: tuples whose key evaluates to NULL leave the
	// selection before state update and probe.
	op := &mqo.Op{
		Payload: mqo.Payload{Kind: mqo.KindJoin,
			LeftKeys:  []expr.Expr{&expr.Column{Index: 0}},
			RightKeys: []expr.Expr{&expr.Column{Index: 0}}},
		Queries:  mqo.Bit(0),
		Children: scansOfWidth(1, 1),
	}
	j := newJoinExec(op, 4, nil)
	left := []delta.Tuple{{Row: value.Row{value.Null}, Bits: mqo.Bit(0), Sign: delta.Insert}}
	right := []delta.Tuple{{Row: value.Row{value.Null}, Bits: mqo.Bit(0), Sign: delta.Insert}}
	out, w := process(j, sources(4, delta.Seq{left}, delta.Seq{right}))
	if len(out) != 0 {
		t.Errorf("NULL keys joined: %v", out)
	}
	if w.State != 0 {
		t.Errorf("NULL-keyed tuples entered join state, State = %d", w.State)
	}
	if w.Tuples != 2 {
		t.Errorf("Tuples = %d, want 2 (input work counts NULL keys too)", w.Tuples)
	}

	// An empty key list is a cross join: every pair matches.
	cross := newJoinExec(&mqo.Op{Payload: mqo.Payload{Kind: mqo.KindJoin}, Queries: mqo.Bit(0), Children: scansOfWidth(1, 1)}, 4, nil)
	out, _ = process(cross, sources(4,
		delta.Seq{{{Row: value.Row{value.Int(1)}, Bits: mqo.Bit(0), Sign: delta.Insert}}},
		delta.Seq{{{Row: value.Row{value.Int(2)}, Bits: mqo.Bit(0), Sign: delta.Insert}}},
	))
	if len(out) != 1 {
		t.Errorf("cross join emitted %d tuples, want 1", len(out))
	}
}

func TestJoinLateDeleteCancels(t *testing.T) { overOptions(t, testJoinLateDeleteCancels) }

func testJoinLateDeleteCancels(t *testing.T) {
	// A delete arriving before its matching insert must net out.
	h := newHarness(t, map[string]string{
		"q": "SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey",
	}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	partLog, _ := r.TableLog("part")
	lineLog, _ := r.TableLog("lineitem")
	se := r.Execs[h.graph.QueryRootSubplan[0].ID]

	row := partRows([3]interface{}{1, "A", 5})[0]
	del := InsertTuple(row)
	del.Sign = delta.Delete
	partLog.Append(del) // delete before insert
	lineLog.Append(InsertTuple(lineitemRows([2]int64{1, 10})[0]))
	se.RunOnce()
	partLog.Append(InsertTuple(row)) // the matching insert cancels
	se.RunOnce()
	if got := r.Results(0); len(got) != 0 {
		t.Errorf("results = %v, want empty (delete+insert cancel)", got)
	}
	if se.Executions() != 2 {
		t.Errorf("Executions = %d", se.Executions())
	}
	if se.TotalWork().Total() <= se.FinalWork().Total() {
		t.Error("no work recorded for first execution")
	}
}

func TestAggregateFunctions(t *testing.T) { overOptions(t, testAggregateFunctions) }

func testAggregateFunctions(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": `SELECT l_partkey, COUNT(*) AS c, AVG(l_quantity) AS a,
			MIN(l_quantity) AS lo, MAX(l_quantity) AS hi
			FROM lineitem GROUP BY l_partkey`,
	}, []string{"q"})
	data := Dataset{"lineitem": lineitemRows(
		[2]int64{1, 10}, [2]int64{1, 20}, [2]int64{1, 30}, [2]int64{2, 5},
	)}
	r, _ := h.run(t, data, []int{2})
	got := r.SortedResults(0)
	want := []string{"1|3|20|10|30", "2|1|5|5|5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results = %v, want %v", got, want)
	}
}

func TestHavingRetractsWhenGroupFallsBelow(t *testing.T) {
	overOptions(t, testHavingRetractsWhenGroupFallsBelow)
}

func testHavingRetractsWhenGroupFallsBelow(t *testing.T) {
	// A group passes HAVING in an early execution, then a late delete
	// pushes it below the threshold: the retraction must remove it.
	h := newHarness(t, map[string]string{
		"q": `SELECT l_partkey, SUM(l_quantity) AS s FROM lineitem
			GROUP BY l_partkey HAVING SUM(l_quantity) > 15`,
	}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := r.TableLog("lineitem")
	se := r.Execs[h.graph.QueryRootSubplan[0].ID]
	log.Append(InsertTuple(lineitemRows([2]int64{1, 20})[0]))
	se.RunOnce()
	if got := r.SortedResults(0); !reflect.DeepEqual(got, []string{"1|20"}) {
		t.Fatalf("after insert: %v", got)
	}
	del := InsertTuple(lineitemRows([2]int64{1, 10})[0])
	del.Sign = delta.Delete
	log.Append(del)
	se.RunOnce()
	if got := r.Results(0); len(got) != 0 {
		t.Errorf("after delete: %v, want empty (10 <= 15)", got)
	}
}

func TestAggregateNullArgumentsSkipped(t *testing.T) {
	overOptions(t, testAggregateNullArgumentsSkipped)
}

func testAggregateNullArgumentsSkipped(t *testing.T) {
	// SUM skips NULLs; COUNT(*) counts every row. A division by zero
	// upstream produces the NULL.
	h := newHarness(t, map[string]string{
		"q": `SELECT COUNT(*) AS c, SUM(l_quantity / (l_partkey - 1)) AS s FROM lineitem`,
	}, []string{"q"})
	data := Dataset{"lineitem": lineitemRows(
		[2]int64{1, 10}, // l_partkey-1 = 0 → NULL
		[2]int64{2, 8},  // 8/1 = 8
	)}
	r, _ := h.run(t, data, nil)
	got := r.SortedResults(0)
	if !reflect.DeepEqual(got, []string{"2|8"}) {
		t.Errorf("results = %v, want [2|8]", got)
	}
}

func TestStateSizes(t *testing.T) {
	j := newJoinExec(&mqo.Op{Payload: mqo.Payload{Kind: mqo.KindJoin}, Queries: mqo.Bit(0), Children: scansOfWidth(1, 1)}, vec.DefaultBatch, nil)
	if j.stateSize() != 0 {
		t.Error("fresh join state not empty")
	}
	a := newAggExec(&mqo.Op{Payload: mqo.Payload{Kind: mqo.KindAggregate}, Queries: mqo.Bit(0)}, nil)
	if a.stateSize() != 0 {
		t.Error("fresh agg state not empty")
	}
}

func TestOpWorkBreakdownSumsToSubplanWork(t *testing.T) {
	overOptions(t, testOpWorkBreakdownSumsToSubplanWork)
}

func testOpWorkBreakdownSumsToSubplanWork(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": `SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
	}, []string{"q"})
	data := Dataset{
		"part":     partRows([3]interface{}{1, "A", 5}, [3]interface{}{2, "B", 9}),
		"lineitem": lineitemRows([2]int64{1, 4}, [2]int64{2, 6}, [2]int64{1, 1}),
	}
	r, _ := h.run(t, data, []int{3})
	se := r.Execs[h.graph.QueryRootSubplan[0].ID]
	var opSum Work
	for _, op := range se.Sub.Ops {
		opSum.Add(se.OpWork(op))
	}
	// Subplan total = per-op work + materialization + startup.
	total := se.TotalWork()
	overhead := total.Total() - opSum.Total()
	if overhead <= 0 {
		t.Errorf("per-op sum %d not below subplan total %d", opSum.Total(), total.Total())
	}
	wantOverhead := int64(se.Out.Len()) + StartupCostPerOp*int64(len(se.Sub.Ops))*int64(se.Executions())
	if overhead != wantOverhead {
		t.Errorf("overhead = %d, want materialization+startup = %d", overhead, wantOverhead)
	}
}
