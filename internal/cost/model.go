package cost

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

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

	memo []map[string]memoEntry
	// epoch advances whenever the memo tables stop describing what earlier
	// evaluations saw (SetCalibration, AdoptMemo): an Evaluation stamped
	// with an older epoch is not evaluated relative to.
	epoch uint64
	// descendants[i] and ancestors[i] are subplan i's transitive children
	// and parents, ascending.
	descendants, ancestors [][]int
	// plans[i] is subplan i compiled for simulation and sources[i] where
	// each of its external inputs comes from, parallel to plans[i].ext.
	plans   []*SimPlan
	sources [][]inputSource
	calib   Calibration
}

// inputSource is where one external input of a subplan comes from: the
// output of child subplan sub, or, for a scan (sub < 0), the table's arrival
// profile, derived from the catalog statistics when the model is built.
type inputSource struct {
	sub   int
	table Profile
}

func (src inputSource) profile(outputs []Profile) Profile {
	if src.sub < 0 {
		return src.table
	}
	return outputs[src.sub]
}

type memoEntry struct {
	pT, pF float64
	out    Profile
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
// and every subplan's output profile. The zero value is ready to be
// evaluated into; EvaluateDelta reuses its buffers, so the Eval's slices are
// valid until the Evaluation is next evaluated into.
type Evaluation struct {
	Eval
	// Paces is the configuration evaluated; read-only.
	Paces []int

	vec   []float64 // backs SubTotal, SubFinal and QueryFinal
	outs  []Profile // each subplan's output profile
	dirty []bool    // the subplans the evaluation re-costed
	key   []byte    // memo key scratch
	model *Model
	epoch uint64
}

// NewModel builds a model for the graph with memoization enabled.
func NewModel(g *mqo.Graph) *Model {
	m := &Model{
		Graph:   g,
		UseMemo: true,
		memo:    make([]map[string]memoEntry, len(g.Subplans)),
		plans:   make([]*SimPlan, len(g.Subplans)),
		sources: make([][]inputSource, len(g.Subplans)),
	}
	for i, s := range g.Subplans {
		m.memo[i] = make(map[string]memoEntry)
		p := CompileSubplan(s)
		m.plans[i] = p
		m.sources[i] = make([]inputSource, len(p.ext))
		for j, e := range p.ext {
			if e.op.Kind == mqo.KindScan {
				m.sources[i][j] = inputSource{sub: -1, table: TableProfile(e.op.Table, e.op.Queries)}
			} else {
				m.sources[i][j] = inputSource{sub: g.SubplanOf(e.op.Children[e.child]).ID}
			}
		}
	}
	// Subplans are ordered children-first, so a forward pass has every
	// child's closure ready and a backward pass every parent's.
	n := len(g.Subplans)
	m.descendants = make([][]int, n)
	for _, s := range g.Subplans {
		m.descendants[s.ID] = closure(s.Children, m.descendants)
	}
	m.ancestors = make([][]int, n)
	for i := n - 1; i >= 0; i-- {
		m.ancestors[i] = closure(g.Subplans[i].Parents, m.ancestors)
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

// evalScratch pools the Evaluation behind Evaluate, whose caller wants only
// the Eval.
var evalScratch = sync.Pool{New: func() any { return new(Evaluation) }}

// Evaluate estimates the cost of a pace configuration.
func (m *Model) Evaluate(paces []int) (Eval, error) {
	e := evalScratch.Get().(*Evaluation)
	defer evalScratch.Put(e)
	if err := m.EvaluateDelta(nil, paces, e); err != nil {
		return Eval{}, err
	}
	clear(e.outs) // a pooled Evaluation must not pin the memo entries it held
	e.model = nil
	n := len(m.Graph.Subplans)
	vec := append([]float64(nil), e.vec...)
	return Eval{Total: e.Total, SubTotal: vec[:n:n], SubFinal: vec[n : 2*n : 2*n], QueryFinal: vec[2*n:]}, nil
}

// OutputProfiles returns each subplan's estimated output profile under the
// pace configuration, indexed by subplan id.
func (m *Model) OutputProfiles(paces []int) ([]Profile, error) {
	var e Evaluation
	err := m.EvaluateDelta(nil, paces, &e)
	return e.outs, err
}

// SubplanInputs returns each member operator's external input profiles for
// one subplan under the pace configuration: one profile for a scan, one slot
// per child otherwise, slots of children inside the subplan left zero.
func (m *Model) SubplanInputs(s *mqo.Subplan, paces []int) (map[*mqo.Op][]Profile, error) {
	outs, err := m.OutputProfiles(paces)
	if err != nil {
		return nil, err
	}
	in := make(map[*mqo.Op][]Profile, len(s.Ops))
	for _, o := range s.Ops {
		in[o] = make([]Profile, max(1, len(o.Children)))
	}
	for j, e := range m.plans[s.ID].ext {
		in[e.op][e.child] = m.sources[s.ID][j].profile(outs)
	}
	return in, nil
}

// OpOutputs simulates one subplan under the pace configuration and returns
// every member operator's accumulated output profile — the input
// cardinalities used by decomposition's subtree-local optimization.
func (m *Model) OpOutputs(s *mqo.Subplan, paces []int) (map[*mqo.Op]Profile, error) {
	outs, err := m.OutputProfiles(paces)
	if err != nil {
		return nil, err
	}
	m.Sims++
	m.Trace.Count("cost.sims", 1)
	_, ops := m.simulate(s, paces[s.ID], outs, true)
	return ops, nil
}

// simulate runs subplan s's compiled plan at one pace, its external inputs
// wired from the table profiles and the child outputs computed so far.
func (m *Model) simulate(s *mqo.Subplan, pace int, outputs []Profile, collect bool) (SimResult, map[*mqo.Op]Profile) {
	p := m.plans[s.ID]
	a := p.arena()
	for j, src := range m.sources[s.ID] {
		a.inputs[j] = src.profile(outputs)
	}
	return p.run(a, pace, collect)
}

// EvaluateDelta evaluates the configuration into out relative to base, an
// Evaluation of this model at a configuration that usually differs in a few
// paces: a subplan is re-costed (memo lookup, simulation on a miss) only if
// its private pace configuration changed — its own pace differs or a child
// was re-costed — and otherwise keeps base's result, the entry the memo would
// have returned. A nil base re-costs every subplan, and so does one that
// cannot vouch for the memo: another model's, one from before a
// SetCalibration or AdoptMemo, any with UseMemo off. Total and QueryFinal are
// re-summed over all subplans in subplan order either way, so every float is
// the one a from-scratch evaluation computes. out must not be base.
func (m *Model) EvaluateDelta(base *Evaluation, paces []int, out *Evaluation) error {
	g := m.Graph
	n := len(g.Subplans)
	if len(paces) != n {
		return fmt.Errorf("cost: %d paces for %d subplans", len(paces), n)
	}
	if base != nil && !(m.UseMemo && base.model == m && base.epoch == m.epoch) {
		base = nil
	}
	out.model, out.epoch = m, m.epoch
	out.Paces = append(out.Paces[:0], paces...)
	out.outs = resize(out.outs, n)
	out.dirty = resize(out.dirty, n)
	// The three vectors share one backing array; capacities are clipped so
	// a caller's append cannot run one into the next.
	out.vec = resize(out.vec, 2*n+g.Plan.NumQueries())
	out.Eval = Eval{SubTotal: out.vec[:n:n], SubFinal: out.vec[n : 2*n : 2*n], QueryFinal: out.vec[2*n:]}
	clear(out.QueryFinal)
	if base != nil {
		copy(out.vec[:2*n], base.vec)
		copy(out.outs, base.outs)
	}
	// Counters accumulate locally and publish once per evaluation, to the
	// model and to the tracer alike.
	var lookups, hits, sims int64
	for _, s := range g.Subplans {
		id := s.ID
		dirty := base == nil || paces[id] != base.Paces[id]
		for _, c := range s.Children {
			dirty = dirty || out.dirty[c.ID]
		}
		out.dirty[id] = dirty
		if dirty {
			var e memoEntry
			hit := false
			if m.UseMemo {
				out.key = m.appendPrivateKey(out.key[:0], id, paces)
				lookups++
				e, hit = m.memo[id][string(out.key)]
			}
			if hit {
				hits++
			} else {
				sims++
				res, _ := m.simulate(s, paces[id], out.outs, false)
				res = m.applyCalibration(s, res)
				e = memoEntry{pT: res.PrivateTotal, pF: res.PrivateFinal, out: res.Out}
				if m.UseMemo {
					m.memo[id][string(out.key)] = e
				}
			}
			out.outs[id], out.SubTotal[id], out.SubFinal[id] = e.out, e.pT, e.pF
		}
		out.Total += out.SubTotal[id]
		final := out.SubFinal[id]
		for _, q := range m.plans[id].queries {
			out.QueryFinal[q] += final
		}
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

// appendPrivateKey renders subplan id's private pace configuration — its own
// pace, then its descendants' in ascending id order — into buf. Callers look
// the key up as string(buf), which the compiler recognizes as an
// allocation-free map access; the string is materialized only on store.
func (m *Model) appendPrivateKey(buf []byte, id int, paces []int) []byte {
	buf = appendKeyPace(buf, paces[id])
	for _, d := range m.descendants[id] {
		buf = appendKeyPace(buf, paces[d])
	}
	return buf
}

// appendKeyPace and splitKey own the memo key format: one uvarint per pace.
func appendKeyPace(buf []byte, pace int) []byte {
	return binary.AppendUvarint(buf, uint64(pace))
}

// splitKey decodes a memo key into its paces, appended to dst.
func splitKey(dst []int, key string) []int {
	for b := []byte(key); len(b) > 0; {
		v, w := binary.Uvarint(b)
		dst = append(dst, int(v))
		b = b[w:]
	}
	return dst
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
