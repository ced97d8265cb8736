package exec

import (
	"reflect"
	"testing"
	"unsafe"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// markedJoin returns a one-key join of two two-column inputs whose only
// marker keeps query 0's candidates whose right value (output column 3) is
// below limit, with n right tuples of one key already applied, and a left
// tuple of that key.
func markedJoin(limit int64, n int) (*joinExec, delta.Tuple) {
	op := &mqo.Op{
		Payload: mqo.Payload{Kind: mqo.KindJoin,
			LeftKeys:  []expr.Expr{&expr.Column{Index: 0}},
			RightKeys: []expr.Expr{&expr.Column{Index: 0}}},
		Queries:  mqo.Bit(0),
		Children: scansOfWidth(2, 2),
		Preds: map[int]expr.Expr{0: &expr.Binary{Op: expr.OpLt,
			L: &expr.Column{Index: 3}, R: &expr.Const{Val: value.Int(limit)}}},
	}
	right := make([]delta.Tuple, n)
	for i := range right {
		right[i] = InsertTuple(value.Row{value.Int(1), value.Int(int64(i))})
	}
	j := newJoinExec(op, vec.DefaultBatch, nil)
	j.process(sources(vec.DefaultBatch, delta.Seq{}, delta.Seq{right}))
	return j, InsertTuple(value.Row{value.Int(1), value.Int(-1)})
}

// probe feeds the left tuple through the join: it meets all n right tuples.
func probe(j *joinExec, left delta.Tuple) ([]delta.Tuple, Work) {
	return j.process(sources(vec.DefaultBatch, delta.Seq{{left}}, delta.Seq{}))
}

// TestJoinCarvesSurvivorsOnly pins that a join's markers run before any
// output row is carved: candidates every marker rejects leave the join's
// persistent row arena untouched.
func TestJoinCarvesSurvivorsOnly(t *testing.T) {
	const n = 3000
	j, left := markedJoin(0, n)
	out, w := probe(j, left)
	if len(out) != 0 || w.Output != 0 {
		t.Fatalf("a rejecting marker emitted %d tuples", len(out))
	}
	if !reflect.ValueOf(j.arena).IsZero() {
		t.Errorf("%d rejected candidates carved output rows", n)
	}

	// The same join with a marker that keeps every candidate does carve:
	// the check above would see it.
	j, left = markedJoin(n, n)
	if out, _ := probe(j, left); len(out) != n {
		t.Fatalf("accepting marker emitted %d tuples, want %d", len(out), n)
	}
	if reflect.ValueOf(j.arena).IsZero() {
		t.Error("surviving candidates were not carved from the arena")
	}
}

// TestTransientJoinReusesScratch pins that a join whose parent copies what
// it keeps carves its output from scratch slabs that later executions
// reuse, and never from the persistent arena.
func TestTransientJoinReusesScratch(t *testing.T) {
	const n = 3000
	j, left := markedJoin(n, n)
	j.transient = true
	out, _ := probe(j, left)
	if len(out) != n {
		t.Fatalf("emitted %d tuples, want %d", len(out), n)
	}
	if !reflect.ValueOf(j.arena).IsZero() {
		t.Error("a transient join carved rows from its persistent arena")
	}
	slabs, first := len(j.slabs), unsafe.SliceData(out[0].Row)
	// The left tuple's delete probes the same n entries again.
	left.Sign = delta.Delete
	if out, _ = probe(j, left); len(out) != n {
		t.Fatalf("second execution emitted %d tuples, want %d", len(out), n)
	}
	if len(j.slabs) != slabs || unsafe.SliceData(out[0].Row) != first {
		t.Errorf("an execution as large as the last one grew the scratch from %d to %d slabs or did not reuse it",
			slabs, len(j.slabs))
	}
}

// TestTransientJoinsFeedAggregatesAndProjects pins which joins of a real
// plan carve transiently: exactly the non-root members whose parent is an
// aggregate or project.
func TestTransientJoinsFeedAggregatesAndProjects(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": `SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
	}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	joins, transient := 0, 0
	for _, se := range r.Execs {
		for _, n := range se.nodes {
			op, x := n.op, n.x
			j, ok := x.(*joinExec)
			if !ok {
				continue
			}
			joins++
			if j.transient {
				transient++
			}
			want := op != se.Sub.Root && op.Parents[0].Kind != mqo.KindJoin
			if j.transient != want {
				t.Errorf("join %d: transient = %v, want %v", op.ID, j.transient, want)
			}
		}
	}
	if joins == 0 || transient == 0 {
		t.Fatalf("plan has %d joins, %d of them transient; want both > 0", joins, transient)
	}
}

// TestAggSidecarSizedOnce pins that an aggregate attaching to a shared
// index of n groups allocates its sidecar once, to the index's group
// count, in slots that hold no copy of the index's keys.
func TestAggSidecarSizedOnce(t *testing.T) {
	const n = 20000
	op := &mqo.Op{Queries: mqo.Bit(0), Children: scansOfWidth(1),
		Payload: mqo.Payload{Kind: mqo.KindAggregate, GroupBy: []plan.NamedExpr{{E: &expr.Column{Index: 0}}}}}
	builder := newAggExec(op, nil)
	in := make([]delta.Tuple, n)
	for i := range in {
		in[i] = InsertTuple(value.Row{value.Int(int64(i))})
	}
	builder.process(sources(vec.DefaultBatch, delta.Seq{in}))
	if got := builder.arr.arena.Len(); got != n {
		t.Fatalf("index holds %d groups, want %d", got, n)
	}

	g := newAggExec(op, nil)
	g.arr = builder.arr
	grown := 0
	for ref := int32(0); ref < n; ref++ {
		before := unsafe.SliceData(g.side)
		g.slotAt(ref)
		if unsafe.SliceData(g.side) != before {
			grown++
		}
	}
	if grown != 1 {
		t.Errorf("attaching to %d groups allocated the sidecar %d times, want once", n, grown)
	}
	if cap(g.side) != n {
		t.Errorf("sidecar capacity %d, want the group count %d", cap(g.side), n)
	}
	if size := unsafe.Sizeof(aggSlot{}); size > 40 {
		t.Errorf("sidecar slots are %d bytes, want at most 40: %d groups take %d bytes", size, n, uintptr(n)*size)
	}

	// The attached aggregate's emission reads the keys from the index.
	out, _ := g.process(sources(vec.DefaultBatch, delta.Seq{in[:3]}))
	var rows []value.Row
	for _, tup := range out {
		rows = append(rows, tup.Row)
	}
	if got := sortedRows(rows); !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Errorf("attached aggregate emitted %v, want groups 0, 1, 2", got)
	}
}
