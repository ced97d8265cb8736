package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/vec"
)

// IndexRegimes runs f three times: at the shipped identity-index threshold,
// with every join entry indexed (threshold 0) and with the index off
// (threshold ∞, every state update walks). Nothing observable — results,
// Work, reports, traces — may depend on which; workloads too small to
// cross the shipped threshold only prove that when the regimes are forced.
func IndexRegimes(t *testing.T, f func(t *testing.T)) {
	for _, regime := range []struct {
		name      string
		threshold int32
	}{{"threshold=default", indexThreshold}, {"threshold=0", 0}, {"threshold=inf", math.MaxInt32}} {
		t.Run(regime.name, func(t *testing.T) {
			setRegime(t, regime.threshold)
			f(t)
		})
	}
}

// CheckLayouts verifies every compiled expression against the layout of the
// executor that actually produces its input (after a graft, possibly an
// adopted one): each column a join key, marker, project expression or
// aggregate GROUP BY or argument reads must resolve, through that layout, to
// the logical column the operator's own expression names. Query roots must
// keep their full schema, and every row in a subplan's output log must be
// as wide as its root's layout — full for scans, projects and aggregates.
func (r *Runner) CheckLayouts() error {
	colsOf := func(o *mqo.Op) []int {
		for _, n := range r.Execs[r.Graph.SubplanOf(o).ID].nodes {
			if j, ok := n.x.(*joinExec); ok && n.op == o {
				return j.cols
			}
		}
		return layouts(nil).cols(o)
	}
	reads := func(o *mqo.Op, logical expr.Expr, compiled *vec.Eval, producer []int) error {
		lc, pc := expr.Columns(logical), expr.Columns(compiled.Source())
		if len(lc) != len(pc) {
			return fmt.Errorf("op %d: %s compiled to %s", o.ID, logical, compiled.Source())
		}
		for i := range lc {
			if pc[i] >= len(producer) || producer[pc[i]] != lc[i] {
				return fmt.Errorf("op %d: %s reads column %d at position %d of layout %v", o.ID, logical, lc[i], pc[i], producer)
			}
		}
		return nil
	}
	markers := func(o *mqo.Op, ms []marker, own []int) error {
		if len(ms) != len(o.Preds) {
			return fmt.Errorf("op %d: %d markers for %d predicates", o.ID, len(ms), len(o.Preds))
		}
		for _, m := range ms {
			if err := reads(o, o.Preds[m.q], m.pred, own); err != nil {
				return err
			}
		}
		return nil
	}
	for _, o := range r.Graph.Plan.QueryRoots {
		if o != nil && !slices.Equal(colsOf(o), layouts(nil).cols(o)) {
			return fmt.Errorf("query root op %d emits %v, not its full schema", o.ID, colsOf(o))
		}
	}
	for _, se := range r.Execs {
		for _, n := range se.nodes {
			o, x := n.op, n.x
			var err error
			switch x := x.(type) {
			case *scanExec:
				err = markers(o, x.markers, colsOf(o))
			case *projectExec:
				for i, ne := range o.Exprs {
					if err == nil {
						err = reads(o, ne.E, x.exprs[i], colsOf(o.Children[0]))
					}
				}
				if err == nil {
					err = markers(o, x.markers, colsOf(o))
				}
			case *aggExec:
				for i, ge := range o.GroupBy {
					if err == nil {
						err = reads(o, ge.E, x.gbEvs[i], colsOf(o.Children[0]))
					}
				}
				for i, a := range o.Aggs {
					if err == nil && a.Arg != nil {
						err = reads(o, a.Arg, x.argEvs[i], colsOf(o.Children[0]))
					}
				}
			case *joinExec:
				for c := range o.LeftKeys {
					if err == nil {
						err = reads(o, o.LeftKeys[c], x.left.kevs[c], colsOf(o.Children[0]))
					}
					if err == nil {
						err = reads(o, o.RightKeys[c], x.right.kevs[c], colsOf(o.Children[1]))
					}
				}
				if err == nil {
					err = markers(o, x.markers, x.cols)
				}
			}
			if err != nil {
				return err
			}
		}
		width := len(colsOf(se.Sub.Root))
		for _, t := range se.outputTuples() {
			if len(t.Row) != width {
				return fmt.Errorf("subplan %d output a %d-value row, layout width %d", se.Sub.ID, len(t.Row), width)
			}
		}
	}
	return nil
}

// JoinLayouts returns every join's output layout by column name, in
// operator order.
func (r *Runner) JoinLayouts() [][]string {
	var out [][]string
	for _, o := range r.Graph.Plan.Ops {
		if o.Kind != mqo.KindJoin {
			continue
		}
		var names []string
		for _, c := range r.lay.cols(o) {
			names = append(names, o.Schema()[c].Name)
		}
		out = append(out, names)
	}
	return out
}

// JoinStateStats sums, over the runner's live join arrangements, the
// entries held, the deltas physically applied and the entries the
// state-update walk compared — the test-only, noise-free measure of what
// the identity index saves.
func (r *Runner) JoinStateStats() (entries, applied, walked int64) {
	for _, a := range r.reg.live {
		if j, ok := a.(*joinArr); ok {
			entries += int64(j.arena.Len())
			applied += j.pos
			walked += j.walked
		}
	}
	return entries, applied, walked
}

// sources returns opened sources over seqs in chunks of at most batch
// tuples, for driving an operator directly (process).
func sources(batch int, seqs ...delta.Seq) []source {
	in := make([]source, len(seqs))
	for i, seq := range seqs {
		in[i] = &seqInput{batch: batch, seq: seq}
	}
	return reopen(in)
}

// reopen rewinds every source to the start of its sequence and returns in,
// so one input can feed process repeatedly without allocating.
func reopen(in []source) []source {
	for _, s := range in {
		s.open()
	}
	return in
}

// seqInput is a test source: a delta.Seq in chunks of at most batch
// tuples, from the start at every open.
type seqInput struct {
	seq   delta.Seq
	batch int
	it    delta.Chunks
}

func (s *seqInput) open() { s.it = delta.NewChunks(s.seq, s.batch) }
func (s *seqInput) Next() ([]delta.Tuple, bool, bool) {
	win, ok := s.it.Next()
	return win, false, ok
}
func (s *seqInput) close() int64 { return 0 }
func (s *seqInput) setLimit(int) {}

// collector is the consumer process attaches to an operator's outlet: it
// keeps every chunk handed to it.
type collector struct {
	opBase
	got []delta.Tuple
}

func (c *collector) push(_ int, in []delta.Tuple, _ bool) { c.got = append(c.got, in...) }
func (c *collector) finish()                              {}

// process drives x through one execution over in, input slot by slot, as
// SubplanExec.run does, and returns the execution's work and what x handed
// on: to a collector it attaches to an outlet without a consumer (nil for
// any other consumer). The tuples are valid until x's next execution. It is
// the one way tests run an operator without an executor; after the first
// call on x it allocates nothing of its own.
func process(x operator, in []source) ([]delta.Tuple, Work) {
	b := x.base()
	if b.out.to == nil && b.out.log == nil {
		b.out.to, b.out.chunks = &collector{}, new(int64)
	}
	c, _ := b.out.to.(*collector)
	if c != nil {
		c.got = c.got[:0]
	}
	for slot, src := range in {
		for tup, borrowed, ok := src.Next(); ok; tup, borrowed, ok = src.Next() {
			x.push(slot, tup, borrowed)
		}
	}
	x.finish()
	w := b.w
	b.w = Work{}
	if c == nil {
		return nil, w
	}
	return c.got, w
}

// outputTuples returns every tuple the executor has output so far: its log,
// or its view read afresh for all the scan's queries.
func (se *SubplanExec) outputTuples() []delta.Tuple {
	var out []delta.Tuple
	if se.view == nil {
		for _, seg := range se.Out.NewReader().ReadNew() {
			out = append(out, seg...)
		}
		return out
	}
	v := newViewReader(se.view, se.view.op.Queries, se.batch, 0, &viewScratch{})
	v.open()
	for tup, _, ok := v.Next(); ok; tup, _, ok = v.Next() {
		out = append(out, tup...)
	}
	return out
}

// staged returns what the executor's operators keep for an execution's
// passage through them: the tuples their outlets and join candidate queues
// hold and the values transient joins' scratch holds, by capacity.
func (se *SubplanExec) staged() (tuples, values int) {
	for _, n := range se.nodes {
		x, ok := n.x.(operator)
		if !ok {
			continue
		}
		tuples += cap(x.base().out.buf)
		if j, ok := x.(*joinExec); ok {
			tuples += cap(j.cand)
			values += cap(j.scratch)
		}
	}
	return tuples, values
}

// SharedMemberSides counts the join arrangements that two join sides of one
// executor share: a member join and a join above it in the same subplan
// probing one build side, whose updates now interleave.
func (r *Runner) SharedMemberSides() int {
	n := 0
	for _, se := range r.Execs {
		seen := map[*joinArr]*joinExec{}
		for _, nd := range se.nodes {
			j, ok := nd.x.(*joinExec)
			if !ok {
				continue
			}
			for _, a := range []*joinArr{j.left.arr, j.right.arr} {
				if other, ok := seen[a]; ok && other != j {
					n++
				}
				seen[a] = j
			}
		}
	}
	return n
}
