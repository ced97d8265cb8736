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
	process(j, sources(vec.DefaultBatch, delta.Seq{}, delta.Seq{right}))
	return j, InsertTuple(value.Row{value.Int(1), value.Int(-1)})
}

// probe feeds the left tuple through the join: it meets all n right tuples.
func probe(j *joinExec, left delta.Tuple) ([]delta.Tuple, Work) {
	return process(j, sources(vec.DefaultBatch, delta.Seq{{left}}, delta.Seq{}))
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

// handOffs is a consumer that checks a join's chunks while they are live:
// every chunk but the last is full, and output column col of the k-th
// tuple holds want(k). It records where each chunk's first row lives.
type handOffs struct {
	opBase
	t      *testing.T
	size   int
	col    int
	want   func(k int64) int64
	next   int64
	firsts []*value.Value
}

func (h *handOffs) push(_ int, in []delta.Tuple, _ bool) {
	if len(h.firsts) > 0 && len(h.firsts)*h.size != int(h.next) {
		h.t.Errorf("chunk %d follows a partial chunk", len(h.firsts))
	}
	for _, tup := range in {
		if v := tup.Row[h.col].AsInt(); v != h.want(h.next) {
			h.t.Fatalf("tuple %d holds %d, want %d: a row was overwritten before its hand-off", h.next, v, h.want(h.next))
		}
		h.next++
	}
	h.firsts = append(h.firsts, unsafe.SliceData(in[0].Row))
}

func (h *handOffs) finish() {}

// TestTransientJoinReusesScratch pins that a join whose consumer copies
// what it keeps hands its output on one chunk at a time, carves it from
// scratch it reuses after every hand-off — one hand-off's rows at most —
// and never from the persistent arena.
func TestTransientJoinReusesScratch(t *testing.T) {
	const n, size = 3000, 64
	j, left := markedJoin(n, n)
	// Output column 3 counts up from 0: the probe order of the right rows.
	h := &handOffs{t: t, size: size, col: 3, want: func(k int64) int64 { return k }}
	j.out = outlet{size: size, to: h, copies: true, chunks: new(int64)}
	probe(j, left)
	if h.next != n || *j.out.chunks != (n+size-1)/size {
		t.Fatalf("handed on %d tuples in %d chunks, want %d in %d", h.next, *j.out.chunks, n, (n+size-1)/size)
	}
	if !reflect.ValueOf(j.arena).IsZero() {
		t.Error("a join whose consumer copies carved rows from its persistent arena")
	}
	if width := len(j.cols); cap(j.scratch) > size*width {
		t.Errorf("scratch holds %d values, more than one hand-off's %d", cap(j.scratch), size*width)
	}
	// Once the scratch holds a whole hand-off, every chunk starts at its
	// first row: the delete's probe of the same n entries included.
	reused := h.firsts[len(h.firsts)-1]
	left.Sign = delta.Delete
	h.next, h.firsts = 0, h.firsts[:0]
	probe(j, left)
	for k, first := range h.firsts {
		if first != reused {
			t.Fatalf("chunk %d of the second execution did not reuse the scratch", k)
		}
	}

	// One right row applied m times is one entry of multiplicity m, whose
	// copies straddle hand-offs: the copies after a hand-off must not share
	// the reused scratch with the next left row's.
	const m = 3 * size / 2
	j, _ = markedJoin(n, 0)
	right := make([]delta.Tuple, m)
	for i := range right {
		right[i] = InsertTuple(value.Row{value.Int(1), value.Int(7)})
	}
	process(j, sources(vec.DefaultBatch, delta.Seq{}, delta.Seq{right}))
	h = &handOffs{t: t, size: size, col: 1, want: func(k int64) int64 { return 100 * (1 + k/m) }}
	j.out = outlet{size: size, to: h, copies: true, chunks: new(int64)}
	process(j, sources(vec.DefaultBatch, delta.Seq{{
		InsertTuple(value.Row{value.Int(1), value.Int(100)}),
		InsertTuple(value.Row{value.Int(1), value.Int(200)}),
	}}, delta.Seq{}))
	if h.next != 2*m {
		t.Fatalf("handed on %d tuples, want %d", h.next, 2*m)
	}
}

// TestTransientJoinsFeedAggregatesAndProjects pins how a real plan's
// operators are wired: a root hands its output to the subplan's log in
// chunks of logChunk; every other operator to its parent's input slot in
// chunks of the executor's batch, marked as copied exactly when the parent
// is an aggregate or project — so exactly the joins under one carve into
// reused scratch.
func TestTransientJoinsFeedAggregatesAndProjects(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": `SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
	}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), Options{Batch: 7})
	if err != nil {
		t.Fatal(err)
	}
	copied := 0
	for _, se := range r.Execs {
		if out := se.nodes[0].x.(operator).base().out; out.log != se.Out || out.size != logChunk || out.to != nil || out.copies {
			t.Errorf("root op %d hands on to %+v, want the log in chunks of %d", se.Sub.Root.ID, out, logChunk)
		}
		for _, n := range se.nodes {
			for slot, k := range n.kids {
				c, ok := se.nodes[max(k, 0)].x.(operator)
				if k < 0 || !ok {
					continue
				}
				got := c.base().out
				copies := n.op.Kind == mqo.KindAggregate || n.op.Kind == mqo.KindProject
				if got.to != n.x || got.slot != slot || got.size != 7 || got.chunks != &se.batches || got.log != nil || got.copies != copies {
					t.Errorf("op %d hands on to %+v, want slot %d of op %d in chunks of 7, copies %v", se.nodes[k].op.ID, got, slot, n.op.ID, copies)
				}
				if _, ok := c.(*joinExec); ok && got.copies {
					copied++
				}
			}
		}
	}
	if copied == 0 {
		t.Fatal("the plan has no join feeding an aggregate or project")
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
	process(builder, sources(vec.DefaultBatch, delta.Seq{in}))
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
	out, _ := process(g, sources(vec.DefaultBatch, delta.Seq{in[:3]}))
	var rows []value.Row
	for _, tup := range out {
		rows = append(rows, tup.Row)
	}
	if got := sortedRows(rows); !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Errorf("attached aggregate emitted %v, want groups 0, 1, 2", got)
	}
}
