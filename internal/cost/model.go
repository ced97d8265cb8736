package cost

import (
	"fmt"
	"math/bits"
	"sort"

	"ishare/internal/mqo"
	"ishare/internal/trace"
)

// Model evaluates pace configurations over a subplan graph. With memoization
// enabled (the default), each subplan caches simulation results keyed by its
// private pace configuration — its own pace plus all descendant subplans'
// paces — which fully determines its inputs and therefore its cost (the
// paper's Algorithm 1).
//
// A model has one owner: no two of its methods may run at once.
type Model struct {
	Graph *mqo.Graph
	// UseMemo disables the memo table when false (the paper's
	// simulate-from-scratch baseline in Figure 15): every evaluation then
	// simulates every subplan, whatever it is evaluated relative to.
	UseMemo bool
	// Trace optionally receives per-evaluation memo-traffic counters
	// (cost.evals / cost.memo_lookups / cost.memo_hits / cost.sims); nil
	// disables tracing at the cost of one pointer check per evaluation.
	Trace *trace.Tracer

	// Sims counts per-subplan simulations performed; Lookups and Hits
	// count memo-table traffic — one lookup per subplan an evaluation had
	// to re-cost, none for the subplans it took unchanged from the
	// evaluation it was computed relative to. Experiments report these as
	// optimization overhead.
	Sims, Lookups, Hits int64

	// memo[i] is subplan i's memo table. With UseMemo off it holds the
	// entries of the last evaluation only, unindexed.
	memo []memoTable
	// epoch advances whenever the memo tables stop describing what earlier
	// evaluations saw (SetCalibration, AdoptMemo, every evaluation with
	// UseMemo off): an Evaluation stamped with an older epoch is not
	// evaluated relative to.
	epoch uint64
	// ancestors[i] is subplan i's transitive parents, ascending.
	ancestors [][]int
	// recost[i] is the set of subplan ids a change of subplan i's pace
	// re-costs: i and its ancestors, one bit per subplan.
	recost [][]uint64
	// querySubplans[q] lists the subplans query q participates in,
	// ascending: the order its final work is summed in.
	querySubplans [][]int
	// plans[i] is subplan i compiled for simulation, sources[i] where each
	// of its external inputs comes from, parallel to plans[i].ext, and
	// arenas[i] the state its simulations write.
	plans   []*SimPlan
	sources [][]inputSource
	arenas  []Arena
	calib   Calibration
	// kids is scratch for the child entry ids of the subplan being re-costed.
	kids []int32
	// scratch is the Evaluation behind Evaluate, OutputProfiles,
	// SubplanInputs and OpOutputs, whose callers want only what they return.
	scratch Evaluation
}

// inputSource is where one external input of a subplan comes from: the
// output of child subplan sub, or, for a scan (sub < 0), the table's arrival
// profile, derived from the catalog statistics when the model is built.
type inputSource struct {
	sub   int
	table stream
}

// Eval is the estimated cost of one pace configuration.
type Eval struct {
	// Total is C_T(P): the estimated total work of all subplans.
	Total float64
	// SubTotal and SubFinal are per-subplan private total and final work.
	SubTotal, SubFinal []float64
	// QueryFinal is C_F(P, q): per query, the summed private final work of
	// the subplans it participates in.
	QueryFinal []float64
}

// Evaluation is an evaluated pace configuration that a neighbouring
// configuration can be costed relative to: the Eval, the paces it belongs to
// and every subplan's memo entry. The zero value is ready to be evaluated
// into; EvaluateDelta reuses its buffers, so the Eval's slices are valid
// until the Evaluation is next evaluated into.
type Evaluation struct {
	Eval
	// Paces is the configuration evaluated; read-only.
	Paces []int

	vec []float64 // backs SubTotal, SubFinal and QueryFinal
	ids []int32   // each subplan's memo entry: its work and output
	// prefix[i] is the sum of SubTotal[:i] in subplan order; prefix[n] is
	// Total.
	prefix []float64
	dirty  []uint64 // the subplans the evaluation re-costed, one bit each
	model  *Model
	epoch  uint64
}

// NewModel builds a model for the graph with memoization enabled.
func NewModel(g *mqo.Graph) *Model {
	m := &Model{
		Graph:   g,
		UseMemo: true,
		memo:    make([]memoTable, len(g.Subplans)),
		plans:   make([]*SimPlan, len(g.Subplans)),
		sources: make([][]inputSource, len(g.Subplans)),
		arenas:  make([]Arena, len(g.Subplans)),
	}
	m.querySubplans = make([][]int, g.Plan.NumQueries())
	shapes := make(map[*mqo.Op][]colShape) // shared: shapes reach across subplans
	for i, s := range g.Subplans {
		for _, q := range s.Queries.Members() {
			m.querySubplans[q] = append(m.querySubplans[q], i)
		}
		p := compile(s, shapes)
		m.plans[i] = p
		m.memo[i] = newMemoTable(s, p)
		m.sources[i] = make([]inputSource, len(p.ext))
		for j, e := range p.ext {
			if e.op.Kind == mqo.KindScan {
				t := TableProfile(e.op.Table, e.op.Queries)
				m.sources[i][j] = inputSource{sub: -1, table: t.stream(make([]float64, len(e.shape)))}
			} else {
				m.sources[i][j] = inputSource{sub: g.SubplanOf(e.op.Children[e.child]).ID}
			}
		}
	}
	// Subplans are ordered children-first, so a backward pass has every
	// parent's closure ready.
	n := len(g.Subplans)
	m.ancestors = make([][]int, n)
	m.recost = make([][]uint64, n)
	words := make([]uint64, n*((n+63)/64))
	for i := n - 1; i >= 0; i-- {
		m.ancestors[i] = closure(g.Subplans[i].Parents, m.ancestors)
		m.recost[i], words = words[:(n+63)/64], words[(n+63)/64:]
		m.recost[i][i/64] |= 1 << (i % 64)
		for _, a := range m.ancestors[i] {
			m.recost[i][a/64] |= 1 << (a % 64)
		}
	}
	return m
}

// closure returns the ascending ids of the subplans next to a subplan along
// one edge direction plus their closures, which must already be in done.
func closure(next []*mqo.Subplan, done [][]int) []int {
	seen := map[int]bool{}
	var ids []int
	for _, c := range next {
		for _, d := range append([]int{c.ID}, done[c.ID]...) {
			if !seen[d] {
				seen[d] = true
				ids = append(ids, d)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// Ancestors returns subplan i's transitive parents, ascending: the subplans
// whose cost depends on i's pace. The slice is shared; do not modify it.
func (m *Model) Ancestors(i int) []int { return m.ancestors[i] }

// Evaluate estimates the cost of a pace configuration.
func (m *Model) Evaluate(paces []int) (Eval, error) {
	e := &m.scratch
	if err := m.EvaluateDelta(nil, paces, e); err != nil {
		return Eval{}, err
	}
	n := len(m.Graph.Subplans)
	vec := append([]float64(nil), e.vec...)
	return Eval{Total: e.Total, SubTotal: vec[:n:n], SubFinal: vec[n : 2*n : 2*n], QueryFinal: vec[2*n:]}, nil
}

// OutputProfiles returns each subplan's estimated output profile under the
// pace configuration, indexed by subplan id.
func (m *Model) OutputProfiles(paces []int) ([]Profile, error) {
	if err := m.EvaluateDelta(nil, paces, &m.scratch); err != nil {
		return nil, err
	}
	return m.outputs(&m.scratch), nil
}

// outputs materializes every subplan's output profile under e, the model's
// latest evaluation or one it could still evaluate relative to.
func (m *Model) outputs(e *Evaluation) []Profile {
	outs := make([]Profile, len(e.ids))
	for i, id := range e.ids {
		v := m.memo[i].view(id)
		outs[i] = v.profile(m.plans[i].outShape())
	}
	return outs
}

// SubplanInputs returns each member operator's external input profiles for
// one subplan under the pace configuration: one profile for a scan, one slot
// per child otherwise, slots of children inside the subplan left zero.
func (m *Model) SubplanInputs(s *mqo.Subplan, paces []int) (map[*mqo.Op][]Profile, error) {
	if err := m.EvaluateDelta(nil, paces, &m.scratch); err != nil {
		return nil, err
	}
	in := make(map[*mqo.Op][]Profile, len(s.Ops))
	for _, o := range s.Ops {
		in[o] = make([]Profile, max(1, len(o.Children)))
	}
	for j, e := range m.plans[s.ID].ext {
		v := m.input(s.ID, j, m.scratch.ids)
		in[e.op][e.child] = v.profile(e.shape)
	}
	return in, nil
}

// OpOutputs simulates one subplan under the pace configuration and returns
// every member operator's accumulated output profile — the input
// cardinalities used by decomposition's subtree-local optimization.
func (m *Model) OpOutputs(s *mqo.Subplan, paces []int) (map[*mqo.Op]Profile, error) {
	if err := m.EvaluateDelta(nil, paces, &m.scratch); err != nil {
		return nil, err
	}
	m.Sims++
	m.Trace.Count("cost.sims", 1)
	a := m.wire(s.ID, m.scratch.ids)
	_, ops := m.plans[s.ID].run(a, paces[s.ID], true)
	return ops, nil
}

// input returns external input j of subplan id: a table's arrival profile,
// or the output of the child's entry in ids.
func (m *Model) input(id, j int, ids []int32) stream {
	src := &m.sources[id][j]
	if src.sub < 0 {
		return src.table
	}
	return m.memo[src.sub].view(ids[src.sub])
}

// wire readies subplan id's arena with its inputs set to the table profiles
// and the outputs of the children's entries in ids.
func (m *Model) wire(id int, ids []int32) *Arena {
	a := &m.arenas[id]
	m.plans[id].prepare(a)
	for j := range a.inputs {
		a.inputs[j] = m.input(id, j, ids)
	}
	return a
}

// simulate runs subplan s at pace over the children's entries in ids — kids
// lists them in Subplan.Children order — and appends the calibrated result
// to s's memo table, returning the new entry's id.
func (m *Model) simulate(s *mqo.Subplan, pace int, kids, ids []int32) int32 {
	a := m.wire(s.ID, ids)
	res, _ := m.plans[s.ID].run(a, pace, false)
	out := &a.result
	t := &m.memo[s.ID]
	id := t.add(pace, kids, memoEntry{pT: res.PrivateTotal, pF: res.PrivateFinal,
		gross: out.Gross, net: out.Net, deleteShare: out.DeleteShare}, out.PerQuery, out.Distinct)
	m.applyCalibration(s, t, id)
	return id
}

// EvaluateDelta evaluates the configuration into out relative to base, an
// Evaluation of this model at a configuration that usually differs in a few
// paces: a subplan is re-costed (memo lookup, simulation on a miss) only if
// its private pace configuration changed — its own pace differs or a
// descendant's does — and otherwise keeps base's result, the entry the memo
// would have returned. A nil base re-costs every subplan, and so does one
// that cannot vouch for the memo: another model's, one from before a
// SetCalibration or AdoptMemo, any with UseMemo off. Total continues base's
// subplan-order sum from the first re-costed subplan, and the final work of
// every query a re-costed subplan serves is re-summed over that query's
// subplans in subplan order; everything else is base's. So every float is the
// one a from-scratch evaluation computes. out must not be base.
func (m *Model) EvaluateDelta(base *Evaluation, paces []int, out *Evaluation) error {
	g := m.Graph
	n := len(g.Subplans)
	if len(paces) != n {
		return fmt.Errorf("cost: %d paces for %d subplans", len(paces), n)
	}
	if base != nil && !(m.UseMemo && base.model == m && base.epoch == m.epoch) {
		base = nil
	}
	if !m.UseMemo {
		// Without a memo nothing outlives an evaluation, so the tables hold
		// one evaluation's entries at a time.
		m.resetMemo()
	}
	out.model, out.epoch = m, m.epoch
	out.Paces = append(out.Paces[:0], paces...)
	out.ids = resize(out.ids, n)
	out.prefix = resize(out.prefix, n+1)
	out.dirty = resize(out.dirty, (n+63)/64)
	// The three vectors share one backing array; capacities are clipped so
	// a caller's append cannot run one into the next.
	out.vec = resize(out.vec, 2*n+g.Plan.NumQueries())
	out.Eval = Eval{SubTotal: out.vec[:n:n], SubFinal: out.vec[n : 2*n : 2*n], QueryFinal: out.vec[2*n:]}
	if base == nil {
		for w := range out.dirty {
			out.dirty[w] = ^uint64(0)
		}
		if n%64 != 0 {
			out.dirty[len(out.dirty)-1] = 1<<(n%64) - 1
		}
		out.prefix[0] = 0
		clear(out.QueryFinal)
	} else {
		copy(out.vec, base.vec)
		copy(out.ids, base.ids)
		copy(out.prefix, base.prefix)
		clear(out.dirty)
		for id, p := range paces {
			if p != base.Paces[id] {
				for w, word := range m.recost[id] {
					out.dirty[w] |= word
				}
			}
		}
	}
	// Counters accumulate locally and publish once per evaluation, to the
	// model and to the tracer alike.
	var lookups, hits, sims int64
	// Dirty subplans in ascending id order, which is children-first.
	first, touched := n, mqo.Bitset(0)
	for w, word := range out.dirty {
		for ; word != 0; word &= word - 1 {
			id := w*64 + bits.TrailingZeros64(word)
			first = min(first, id)
			s := g.Subplans[id]
			touched |= s.Queries
			kids := m.kids[:0]
			for _, c := range s.Children {
				kids = append(kids, out.ids[c.ID])
			}
			m.kids = kids
			t := &m.memo[id]
			var k memoKey
			e, hit := int32(0), false
			if m.UseMemo {
				k = t.key(paces[id], kids)
				lookups++
				e, hit = t.index[k]
			}
			if hit {
				hits++
			} else {
				sims++
				e = m.simulate(s, paces[id], kids, out.ids)
				if m.UseMemo {
					t.index[k] = e
				}
			}
			out.ids[id] = e
			en := t.entry(e)
			out.SubTotal[id], out.SubFinal[id] = en.pT, en.pF
		}
	}
	for id := first; id < n; id++ {
		out.prefix[id+1] = out.prefix[id] + out.SubTotal[id]
	}
	out.Total = out.prefix[n]
	for v := uint64(touched); v != 0; v &= v - 1 {
		q := bits.TrailingZeros64(v)
		var final float64
		for _, id := range m.querySubplans[q] {
			final += out.SubFinal[id]
		}
		out.QueryFinal[q] = final
	}
	m.Lookups += lookups
	m.Hits += hits
	m.Sims += sims
	if m.Trace != nil {
		m.Trace.Count("cost.evals", 1)
		m.Trace.Count("cost.memo_lookups", lookups)
		m.Trace.Count("cost.memo_hits", hits)
		m.Trace.Count("cost.sims", sims)
	}
	return nil
}

// resetMemo empties every memo table and retires the Evaluations that named
// their entries.
func (m *Model) resetMemo() {
	for i := range m.memo {
		m.memo[i].reset()
	}
	m.epoch++
}

// BatchFinalWork estimates each query's final work when executed separately
// in one batch — the denominator of relative final-work constraints. It
// builds a single-query cost model per query, so shared-plan effects do not
// leak into the baseline.
func BatchFinalWork(graphs []*mqo.Graph) ([]float64, error) {
	out := make([]float64, len(graphs))
	for i, g := range graphs {
		m := NewModel(g)
		paces := make([]int, len(g.Subplans))
		for j := range paces {
			paces[j] = 1
		}
		ev, err := m.Evaluate(paces)
		if err != nil {
			return nil, err
		}
		if g.Plan.NumQueries() != 1 {
			return nil, fmt.Errorf("cost: batch baseline graph %d has %d queries", i, g.Plan.NumQueries())
		}
		out[i] = ev.QueryFinal[0]
	}
	return out, nil
}
