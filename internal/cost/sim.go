package cost

import (
	"slices"

	"ishare/internal/exec"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
)

// maxDeleteHitFraction is the modeled probability weight that a deletion
// arriving at a MIN/MAX aggregate retracts the current extremum and forces a
// state rescan; real workloads skew toward hot groups, so the expectation
// under a uniform model would underestimate the engine.
const maxDeleteHitFraction = 0.5

// SimResult is the work of simulating one subplan under one pace.
type SimResult struct {
	// PrivateTotal is the estimated work of all incremental executions.
	PrivateTotal float64
	// PrivateFinal is the estimated work of the final execution.
	PrivateFinal float64
}

// SimPlan is one subplan compiled for simulation: everything that is fixed
// per subplan — the children-first operator order, where each operator's
// inputs come from, the dense slot of every query, the distinct-predicate
// classes, which operators see the same chunk at every step, every column's
// value range — is resolved once, so a simulation is a flat loop over
// preallocated buffers. A SimPlan is immutable once compiled; the buffers a
// simulation writes live in an Arena its caller owns (a Model keeps one per
// compiled plan).
type SimPlan struct {
	// queries maps slot to query id, ascending: every per-query vector of a
	// simulation is indexed by slot. All member operators of a subplan share
	// one query set, so one mapping serves the whole plan.
	queries []int
	mask    mqo.Bitset
	// ops is the order the recursive descent from the root finishes
	// operators in (children before parents, left before right, root last);
	// per-step work is summed in this order.
	ops []simOp
	// ext lists the streams the plan reads from outside the subplan.
	ext []extInput
	// startup is the per-execution fixed cost, as in the engine.
	startup float64
	// stateFloats counts the floats of per-query operator state, domains the
	// join-key domains, distincts the output columns of all operators.
	stateFloats, domains, distincts int
}

// extInput names one external input: inputs[op][child] in the map form.
type extInput struct {
	op    *mqo.Op
	child int
	// shape is the input's columns.
	shape []colShape
}

// simOp is one compiled operator.
type simOp struct {
	op *mqo.Op
	// in locates each input: i >= 0 is the output of ops[i], i < 0 the
	// chunk of ext[^i].
	in [2]int
	// invariant marks a scan, or a projection over invariant inputs: it is
	// stateless and sees the identical chunk at every step, so it is
	// simulated once per simulation and its output and work reused.
	invariant bool
	// colsVary reports that the output column Distincts change between
	// steps, so a join above must refresh its copy.
	colsVary bool
	// preds lists the slots carrying a marker predicate, ascending.
	preds []simPred
	// colSrc is, per projection or group-by expression, the input column it
	// passes through, or -1 for a computed expression.
	colSrc []int
	// hasExtremum marks an aggregate with a MIN/MAX that rescans on deletes.
	hasExtremum bool
	// state is the offset of the per-query state in the arena's floats: a
	// join's two sides' net arrivals, an aggregate's arrivals.
	state int
	// domain is the offset of a join's key domains in the arena's: one per
	// left key, then one per right key.
	domain int
	// shape is the output's columns.
	shape []colShape
}

// simPred is one query's marker predicate on an operator's output.
type simPred struct {
	slot int
	pred expr.Expr
	// first marks the first slot, in ascending order, of its class of
	// identical predicates: the union survival counts each class once.
	first bool
}

// opState is an operator's scalar state across the steps of one simulation.
type opState struct {
	// work is the operator's work in the step last simulated.
	work float64
	// Join: net rows held per side.
	leftNet, rightNet float64
	// Aggregate: groups is the number of groups after the step last
	// simulated, which the next step starts from.
	arrivedAll, groupDomain, netState, groups float64
	// groupDraw draws from the group domain, affectedDraw from the groups
	// seen so far, whose number stops changing once the domain is exhausted.
	groupDraw, affectedDraw domain
}

// Arena holds every buffer a simulation writes. It has one owner and serves
// one simulation at a time, of any plan: the buffers are laid out when a plan
// is simulated in it for the first time since another plan was, and
// otherwise only reset. The zero value is ready to use.
type Arena struct {
	plan   *SimPlan // the plan the buffers are laid out for
	inputs []stream // external inputs, set by the caller, parallel to ext
	chunks []stream // one step's share of each input
	outs   []stream // each operator's output in the current step
	state  []opState
	// rootAcc is the root's per-query output, summed over steps.
	rootAcc []float64
	// floats backs the per-query state, every PerQuery above and the
	// operators' own Distincts.
	floats  []float64
	domains []domain // the joins' key domains
	stats   colStats
	// result is the root's output over the whole window, set by run; its
	// slices are the arena's (or an input's).
	result stream
	// inDistinct backs the Distincts of inputs given as Profiles.
	inDistinct []float64
}

// resize returns s with length n, reusing its backing array when it fits.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CompileSubplan compiles a subplan for simulation.
func CompileSubplan(s *mqo.Subplan) *SimPlan {
	p := &SimPlan{
		queries: s.Queries.Members(),
		mask:    s.Queries,
		startup: float64(exec.StartupCostPerOp * len(s.Ops)),
	}
	member := make(map[*mqo.Op]bool, len(s.Ops))
	for _, o := range s.Ops {
		member[o] = true
	}
	n := len(p.queries)
	shapes := make(map[*mqo.Op][]colShape)
	external := func(o *mqo.Op, child int) int {
		src := o // a scan reads its table, whose columns it passes on
		if o.Kind != mqo.KindScan {
			src = o.Children[child]
		}
		p.ext = append(p.ext, extInput{op: o, child: child, shape: shapeOf(src, shapes)})
		return ^(len(p.ext) - 1)
	}
	classes := make(map[string]bool)
	var visit func(o *mqo.Op) int
	visit = func(o *mqo.Op) int {
		c := simOp{op: o, shape: shapeOf(o, shapes)}
		p.distincts += len(c.shape)
		steady, childColsVary := true, false
		if o.Kind == mqo.KindScan {
			c.in[0] = external(o, 0)
		} else {
			for i, ch := range o.Children {
				if !member[ch] {
					c.in[i] = external(o, i)
					continue
				}
				c.in[i] = visit(ch)
				steady = steady && p.ops[c.in[i]].invariant
				childColsVary = childColsVary || p.ops[c.in[i]].colsVary
			}
		}
		clear(classes)
		for slot, q := range p.queries {
			if pred, ok := o.Preds[q]; ok {
				canon := expr.Canon(pred)
				c.preds = append(c.preds, simPred{slot: slot, pred: pred, first: !classes[canon]})
				classes[canon] = true
			}
		}
		switch o.Kind {
		case mqo.KindScan:
			c.invariant = true
		case mqo.KindProject:
			c.invariant = steady
			c.colsVary = !steady
			c.colSrc = columnSources(o.Exprs)
		case mqo.KindJoin:
			c.colsVary = childColsVary
			c.state = p.stateFloats
			p.stateFloats += 2 * n
			c.domain = p.domains
			p.domains += len(o.LeftKeys) + len(o.RightKeys)
		case mqo.KindAggregate:
			c.colsVary = true
			c.colSrc = columnSources(o.GroupBy)
			for _, a := range o.Aggs {
				if !a.Func.Incremental() {
					c.hasExtremum = true
				}
			}
			c.state = p.stateFloats
			p.stateFloats += n
		}
		p.ops = append(p.ops, c)
		return len(p.ops) - 1
	}
	visit(s.Root)
	return p
}

// shapeOf returns the value ranges of o's output columns. Only a column's
// Distinct depends on pace: its range is its source column's, copied through
// from a base table, or none (Null) for a computed column. So shapes follow
// from the catalog and the operator tree alone, across subplan boundaries
// down to the scans. done memoizes the operators shaped so far.
func shapeOf(o *mqo.Op, done map[*mqo.Op][]colShape) []colShape {
	if sh, ok := done[o]; ok {
		return sh
	}
	var sh []colShape
	switch o.Kind {
	case mqo.KindScan:
		sh = make([]colShape, len(o.Table.Columns))
		for i, c := range o.Table.Columns {
			st := o.Table.Stats.Columns[c.Name]
			sh[i] = colShape{Min: st.Min, Max: st.Max}
		}
	case mqo.KindProject:
		sh = passThrough(columnSources(o.Exprs), 0, shapeOf(o.Children[0], done))
	case mqo.KindJoin:
		sh = append(slices.Clone(shapeOf(o.Children[0], done)), shapeOf(o.Children[1], done)...)
	case mqo.KindAggregate:
		sh = passThrough(columnSources(o.GroupBy), len(o.Aggs), shapeOf(o.Children[0], done))
	}
	done[o] = sh
	return sh
}

// passThrough shapes the columns srcs select from an input shaped in,
// followed by computed columns.
func passThrough(srcs []int, computed int, in []colShape) []colShape {
	sh := make([]colShape, len(srcs)+computed)
	for j, src := range srcs {
		if passesThrough(src, len(in)) {
			sh[j] = in[src]
		}
	}
	return sh
}

// columnSources resolves each expression to the input column it passes
// through, or -1.
func columnSources(exprs []plan.NamedExpr) []int {
	out := make([]int, len(exprs))
	for i, ne := range exprs {
		out[i] = -1
		if c, ok := ne.E.(*expr.Column); ok {
			out[i] = c.Index
		}
	}
	return out
}

// passesThrough reports whether a compiled column source names one of an
// input's width columns; anything else is a computed expression.
func passesThrough(src, width int) bool {
	return src >= 0 && src < width
}

// outShape is the columns of the plan's output, its root's.
func (p *SimPlan) outShape() []colShape { return p.ops[len(p.ops)-1].shape }

// inShape is the columns of the input ref locates (see simOp.in).
func (p *SimPlan) inShape(ref int) []colShape {
	if ref >= 0 {
		return p.ops[ref].shape
	}
	return p.ext[^ref].shape
}

// prepare readies a for a simulation of this plan. Unless a is laid out for
// the plan already, it lays it out: one per-query vector per operator output,
// per input chunk and for the root accumulator, one Distinct vector per
// operator output, all in a.floats after the per-query state. Either way it
// zeroes the state, the root accumulator and the Distincts. An output keeps
// its vectors from one simulation to the next: every step writes its
// PerQuery, and only a scan's step re-points its Distinct — at its input's,
// before anything reads it. The caller then sets a.inputs and hands a to run.
func (p *SimPlan) prepare(a *Arena) {
	n := len(p.queries)
	if a.plan != p {
		a.plan = p
		a.inputs = resize(a.inputs, len(p.ext))
		a.chunks = resize(a.chunks, len(p.ext))
		a.outs = resize(a.outs, len(p.ops))
		a.state = resize(a.state, len(p.ops))
		a.floats = resize(a.floats, p.stateFloats+(len(p.ops)+len(p.ext)+1)*n+p.distincts)
		a.domains = resize(a.domains, p.domains)
		off := p.stateFloats
		vector := func(n int) []float64 {
			off += n
			return a.floats[off-n : off : off]
		}
		for i := range a.outs {
			a.outs[i] = stream{PerQuery: vector(n)}
		}
		for i := range a.chunks {
			a.chunks[i] = stream{PerQuery: vector(n)}
		}
		a.rootAcc = vector(n)
		for i := range a.outs {
			a.outs[i].Distinct = vector(len(p.ops[i].shape))
		}
	}
	clear(a.state)
	clear(a.domains)
	clear(a.floats[:p.stateFloats])
	clear(a.rootAcc)
	clear(a.floats[len(a.floats)-p.distincts:])
}

// Simulate runs the simulation at one pace in a over the external inputs,
// given in the form SubplanInputs returns them. Of the inputs' column
// statistics only Distinct is read: the value ranges are the plan's own.
func (p *SimPlan) Simulate(a *Arena, pace int, inputs map[*mqo.Op][]Profile) SimResult {
	p.prepare(a)
	width := 0
	for _, e := range p.ext {
		width += len(e.shape)
	}
	a.inDistinct = resize(a.inDistinct, width)
	distinct := a.inDistinct
	for i, e := range p.ext {
		w := len(e.shape)
		a.inputs[i] = inputs[e.op][e.child].stream(distinct[:w:w])
		distinct = distinct[w:]
	}
	res, _ := p.run(a, pace, false)
	return res
}

// run simulates pace executions over a.inputs and leaves the root's output
// over the window in a.result. With collect it also returns each member
// operator's accumulated output, which owns its memory.
func (p *SimPlan) run(a *Arena, pace int, collect bool) (SimResult, map[*mqo.Op]Profile) {
	n := len(p.queries)

	// One execution's share of every input: the same at every step.
	k := float64(pace)
	for i := range a.chunks {
		in, c := &a.inputs[i], &a.chunks[i]
		c.Gross = in.Gross / k
		c.Net = in.Net / k
		c.DeleteShare = in.DeleteShare
		c.Distinct = in.Distinct
		for slot, q := range p.queries {
			// A query the input has no entry for sees the whole chunk.
			c.PerQuery[slot] = in.grossFor(q) / k
		}
	}

	var acc []Profile
	if collect {
		acc = make([]Profile, len(p.ops))
		for i := range acc {
			acc[i].Queries = p.mask
			acc[i].PerQuery = make([]float64, n)
		}
	}

	var res SimResult
	var outGross, outDeletes, outNet float64
	root := &a.outs[len(p.ops)-1]
	for e := 1; e <= pace; e++ {
		var work float64
		for i := range p.ops {
			if e == 1 || !p.ops[i].invariant {
				a.state[i].work = p.step(a, i, e == 1)
			}
			work += a.state[i].work
			if collect {
				out, t := &a.outs[i], &acc[i]
				t.Gross += out.Gross
				t.DeleteShare += out.Gross * out.DeleteShare // normalized below
				t.Net += out.Net
				for slot, v := range out.PerQuery {
					t.PerQuery[slot] += v
				}
			}
		}
		// Root output materialization plus the per-execution startup
		// cost, as in the engine.
		work += root.Gross
		work += p.startup
		res.PrivateTotal += work
		if e == pace {
			res.PrivateFinal = work
		}
		outGross += root.Gross
		outDeletes += root.Gross * root.DeleteShare
		outNet += root.Net
		for slot, v := range root.PerQuery {
			a.rootAcc[slot] += v
		}
	}
	a.result = stream{Gross: outGross, Net: outNet, Queries: p.mask, PerQuery: a.rootAcc, Distinct: root.Distinct}
	if outGross > 0 {
		a.result.DeleteShare = outDeletes / outGross
	}
	if !collect {
		return res, nil
	}
	opOut := make(map[*mqo.Op]Profile, len(p.ops))
	for i := range acc {
		if acc[i].Gross > 0 {
			acc[i].DeleteShare /= acc[i].Gross
		}
		acc[i].Cols = columnStats(p.ops[i].shape, a.outs[i].Distinct)
		opOut[p.ops[i].op] = acc[i]
	}
	return res, opOut
}

func (p *SimPlan) input(a *Arena, ref int) *stream {
	if ref >= 0 {
		return &a.outs[ref]
	}
	return &a.chunks[^ref]
}

// step simulates one execution of operator i over one chunk per input,
// writes its output stream in place and returns its work units.
func (p *SimPlan) step(a *Arena, i int, first bool) float64 {
	o := &p.ops[i]
	out := &a.outs[i]
	switch o.op.Kind {
	case mqo.KindScan:
		in := p.input(a, o.in[0])
		p.applyPreds(a, o, in, out)
		out.Distinct = in.Distinct
		return in.Gross + out.Gross
	case mqo.KindProject:
		in := p.input(a, o.in[0])
		p.applyPreds(a, o, in, out)
		// Projection rewrites columns; derive output stats per expression.
		for j, src := range o.colSrc {
			out.Distinct[j] = out.Net
			if passesThrough(src, len(in.Distinct)) {
				out.Distinct[j] = in.Distinct[src]
			}
		}
		return in.Gross + out.Gross
	case mqo.KindJoin:
		return p.stepJoin(a, o, out, &a.state[i], first)
	case mqo.KindAggregate:
		return p.stepAgg(a, o, out, &a.state[i], first)
	default:
		return 0
	}
}

// applyPreds computes the per-query and union survival of the operator's
// marker predicates over a stream.
func (p *SimPlan) applyPreds(a *Arena, o *simOp, in, out *stream) {
	out.DeleteShare = in.DeleteShare
	copy(out.PerQuery, in.PerQuery)
	// The union survival multiplies misses over DISTINCT predicates:
	// queries sharing an identical predicate select the same tuples, so
	// counting the predicate once keeps the union (and the per-query
	// divergence signal downstream) correct.
	unionMiss := 1.0
	a.stats = colStats{shape: p.inShape(o.in[0]), distinct: in.Distinct}
	for _, sp := range o.preds {
		sel := expr.Selectivity(sp.pred, &a.stats)
		if sp.first {
			unionMiss *= 1 - sel
		}
		out.PerQuery[sp.slot] = in.PerQuery[sp.slot] * sel
	}
	unionSel := 1.0
	if len(o.preds) == len(p.queries) { // no query passes unfiltered
		unionSel = 1 - unionMiss
	}
	out.Gross = in.Gross * unionSel
	out.Net = in.Net * unionSel
}

func (p *SimPlan) stepJoin(a *Arena, o *simOp, out *stream, st *opState, first bool) float64 {
	l, r := p.input(a, o.in[0]), p.input(a, o.in[1])
	// Key distinct estimates refresh with arrived data. Composite keys
	// multiply per-column distincts, capped by the side's row count.
	leftKeyDist, rightKeyDist := 1.0, 1.0
	if len(o.op.LeftKeys) > 0 {
		doms := a.domains[o.domain:]
		leftKeyDist = compositeDistinct(o.op.LeftKeys, l.Distinct, st.leftNet+l.Net, doms)
		rightKeyDist = compositeDistinct(o.op.RightKeys, r.Distinct, st.rightNet+r.Net, doms[len(o.op.LeftKeys):])
	}
	d := leftKeyDist
	if rightKeyDist > d {
		d = rightKeyDist
	}
	if d < 1 {
		d = 1
	}
	sel := 1 / d

	work := l.Gross + r.Gross // tuples
	work += l.Gross + r.Gross // state updates

	n := len(p.queries)
	leftState, rightState := a.floats[o.state:o.state+n], a.floats[o.state+n:o.state+2*n]
	for slot := range out.PerQuery {
		lq, rq := l.PerQuery[slot], r.PerQuery[slot]
		lState, rState := leftState[slot], rightState[slot]
		// ΔL ⋈ R_old + (L_old + ΔL) ⋈ ΔR.
		out.PerQuery[slot] = lq*rState*sel + (lState+lq)*rq*sel
		// State holds net arrivals.
		leftState[slot] = lState + lq*(1-2*l.DeleteShare)
		rightState[slot] = rState + rq*(1-2*r.DeleteShare)
	}
	union := l.Gross*st.rightNet*sel + (st.leftNet+l.Gross)*r.Gross*sel
	out.Gross = union
	work += union // outputs

	// The output's net increment is the derivative of Ln·Rn·sel:
	// ΔLn·Rn_old + Ln_new·ΔRn.
	out.Net = (l.Net*st.rightNet + (st.leftNet+l.Net)*r.Net) * sel
	st.leftNet += l.Net
	st.rightNet += r.Net
	out.DeleteShare = combineDeleteShare(l.DeleteShare, r.DeleteShare)

	if first || o.colsVary {
		copy(out.Distinct, l.Distinct)
		copy(out.Distinct[len(l.Distinct):], r.Distinct)
	}
	return work
}

// compositeDistinct estimates the distinct count of a multi-column join
// key: the product of per-column distincts, capped by the number of rows.
// doms holds one domain per key.
func compositeDistinct(keys []expr.Expr, distinct []float64, n float64, doms []domain) float64 {
	d := 1.0
	for i, k := range keys {
		d *= distinctOf(k, distinct, n, &doms[i])
		if d >= n {
			break
		}
	}
	if n >= 1 && d > n {
		d = n
	}
	if d < 1 {
		d = 1
	}
	return d
}

// combineDeleteShare: a join output delta is a delete when exactly one of
// the contributing deltas is a delete.
func combineDeleteShare(a, b float64) float64 {
	return a*(1-b) + b*(1-a)
}

func (p *SimPlan) stepAgg(a *Arena, o *simOp, out *stream, st *opState, first bool) float64 {
	in := p.input(a, o.in[0])
	if first {
		st.groupDomain = groupDomain(o.op.GroupBy, in.Distinct)
		st.groups = drawnDistinct(st.groupDomain, st.arrivedAll)
	}
	n := len(p.queries)
	arrived := a.floats[o.state : o.state+n]

	work := in.Gross // tuples
	// Accumulator updates: one per valid query bit per aggregate.
	avgBits := 0.0
	if in.Gross > 0 {
		var sum float64
		for _, v := range in.PerQuery {
			sum += v
		}
		avgBits = maxf(0, sum/in.Gross)
	}
	work += in.Gross * avgBits * float64(max(1, len(o.op.Aggs)))

	// MIN/MAX rescans on deletions.
	deletes := in.Gross * in.DeleteShare
	groupsNow := st.groupDraw.drawn(st.groupDomain, st.arrivedAll+in.Gross)
	if o.hasExtremum && deletes > 0 {
		valsPerGroup := 1.0
		if groupsNow > 0 {
			valsPerGroup = maxf(1, st.netState/groupsNow)
		}
		hits := deletes
		if hits > groupsNow {
			hits = groupsNow
		}
		work += hits * valsPerGroup * maxDeleteHitFraction
	}

	// Affected groups this execution. The groups before it are the previous
	// step's groupsNow: the same draw, from the same domain.
	groupsBefore := st.groups
	st.groups = groupsNow
	inserts := in.Gross * (1 - in.DeleteShare)
	affected := st.affectedDraw.drawn(groupsNow, in.Gross)
	newGroups := groupsNow - groupsBefore
	if newGroups < 0 {
		newGroups = 0
	}
	if newGroups > affected {
		newGroups = affected
	}
	// Queries that aggregate different subsets of the input (divergent
	// marker predicates upstream) accumulate different values, so the
	// shared aggregate emits one output row per value class instead of one
	// row carrying all bits — the extra work a shared aggregate does over
	// the individual aggregates (paper §5.4).
	classes := valueClasses(arrived, in, st.arrivedAll)
	// Changed groups retract the old row and emit the new one; new groups
	// emit one row — per value class.
	baseOut := (affected-newGroups)*2 + newGroups
	out.Gross = baseOut * classes
	// The net increment of an aggregate's output is its newly created
	// groups; changed groups retract and re-emit, netting zero.
	out.Net = newGroups
	out.DeleteShare = 0
	if out.Gross > 0 {
		out.DeleteShare = (affected - newGroups) / out.Gross
	}
	for slot, v := range in.PerQuery {
		arrived[slot] += v
		share := 0.0
		if groupsNow > 0 {
			share = clamp01(st.groupDraw.drawn(st.groupDomain, arrived[slot]) / groupsNow)
		}
		// A query's own delta stream is single-class.
		out.PerQuery[slot] = baseOut * share
	}
	st.arrivedAll += in.Gross
	st.netState += inserts - deletes

	work += out.Gross // output tuples

	for j := range out.Distinct {
		out.Distinct[j] = groupsNow
	}
	for j, src := range o.colSrc {
		if passesThrough(src, len(in.Distinct)) {
			out.Distinct[j] = minf(in.Distinct[src], groupsNow)
		}
	}
	return work
}

// valueClasses estimates how many distinct per-query value classes the
// aggregate's output rows fall into. Queries that aggregate the same tuples
// produce identical values and cluster into one output row; queries over
// disjoint subsets each need their own row. The estimate interpolates on
// the overlap of the queries' input shares: with n live queries whose
// shares of the union sum to S, full overlap (S = n) gives one class and
// pairwise-disjoint inputs (S = 1) give n classes.
func valueClasses(arrived []float64, in *stream, arrivedAll float64) float64 {
	if len(arrived) <= 1 {
		return 1
	}
	total := arrivedAll + in.Gross
	if total <= 0 {
		return 1
	}
	live := 0
	sumShares := 0.0
	for slot, v := range in.PerQuery {
		arrivedQ := arrived[slot] + v
		if arrivedQ <= 0 {
			continue
		}
		live++
		sumShares += clamp01(arrivedQ / total)
	}
	if live <= 1 {
		return 1
	}
	overlap := clamp01((sumShares - 1) / float64(live-1))
	return float64(live) - overlap*float64(live-1)
}

func groupDomain(groups []plan.NamedExpr, distinct []float64) float64 {
	if len(groups) == 0 {
		return 1
	}
	d := 1.0
	for _, g := range groups {
		gd := 1000.0
		if c, ok := g.E.(*expr.Column); ok && c.Index < len(distinct) && distinct[c.Index] > 0 {
			gd = distinct[c.Index]
		}
		d *= gd
		if d > 1e12 {
			return 1e12
		}
	}
	return d
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b || b <= 0 {
		return a
	}
	return b
}
