package cost

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"ishare/internal/mqo"
	"ishare/internal/trace"
)

// Model evaluates pace configurations over a subplan graph. With memoization
// enabled (the default), each subplan caches simulation results keyed by its
// private pace configuration — its own pace plus all descendant subplans'
// paces — which fully determines its inputs and therefore its cost (the
// paper's Algorithm 1).
//
// Evaluate (and the helpers built on it) is safe for concurrent use: the
// per-subplan memo tables are guarded by sharded locks, the table-profile
// cache by its own lock, and the traffic counters are updated atomically.
// Simulation is deterministic, so concurrent misses on the same key store
// identical entries and the evaluation result is independent of scheduling.
type Model struct {
	Graph *mqo.Graph
	// UseMemo disables the memo table when false (the paper's
	// simulate-from-scratch baseline in Figure 15).
	UseMemo bool
	// Trace optionally receives per-evaluation memo-traffic counters
	// (cost.evals / cost.memo_lookups / cost.memo_hits / cost.sims); nil
	// disables tracing at the cost of one pointer check per evaluation.
	Trace *trace.Tracer

	// Sims counts per-subplan simulations performed; Lookups and Hits
	// count memo-table traffic. Experiments report these as optimization
	// overhead. They are updated atomically; read them only after
	// concurrent evaluation has quiesced.
	Sims, Lookups, Hits int64

	// memoMu[i] guards memo[i] (both the map header, which SetCalibration
	// swaps, and its contents).
	memoMu      []sync.RWMutex
	memo        []map[string]memoEntry
	descendants [][]int
	// plans[i] is subplan i compiled for simulation and sources[i] where
	// each of its external inputs comes from, parallel to plans[i].ext.
	plans   []*SimPlan
	sources [][]inputSource
	calibMu sync.RWMutex
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

// NewModel builds a model for the graph with memoization enabled.
func NewModel(g *mqo.Graph) *Model {
	m := &Model{
		Graph:   g,
		UseMemo: true,
		memoMu:  make([]sync.RWMutex, len(g.Subplans)),
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
	m.descendants = make([][]int, len(g.Subplans))
	for _, s := range g.Subplans { // children-first: descendants already set
		seen := map[int]bool{}
		var ids []int
		for _, c := range s.Children {
			if !seen[c.ID] {
				seen[c.ID] = true
				ids = append(ids, c.ID)
			}
			for _, d := range m.descendants[c.ID] {
				if !seen[d] {
					seen[d] = true
					ids = append(ids, d)
				}
			}
		}
		sort.Ints(ids)
		m.descendants[s.ID] = ids
	}
	return m
}

// outputScratch pools the per-subplan output vector of evaluations whose
// caller wants only the Eval.
var outputScratch = sync.Pool{New: func() any { return new([]Profile) }}

// Evaluate estimates the cost of a pace configuration.
func (m *Model) Evaluate(paces []int) (Eval, error) {
	sp := outputScratch.Get().(*[]Profile)
	*sp = resize(*sp, len(m.Graph.Subplans))
	ev, err := m.evaluateFull(paces, *sp)
	clear(*sp) // a pooled vector must not pin the memo entries it held
	outputScratch.Put(sp)
	return ev, err
}

// OutputProfiles returns each subplan's estimated output profile under the
// pace configuration, indexed by subplan id.
func (m *Model) OutputProfiles(paces []int) ([]Profile, error) {
	outs := make([]Profile, len(m.Graph.Subplans))
	_, err := m.evaluateFull(paces, outs)
	return outs, err
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
	atomic.AddInt64(&m.Sims, 1)
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

// evaluateFull evaluates the configuration, leaving every subplan's output
// profile in outputs (one slot per subplan; prior contents are ignored).
func (m *Model) evaluateFull(paces []int, outputs []Profile) (Eval, error) {
	g := m.Graph
	if len(paces) != len(g.Subplans) {
		return Eval{}, fmt.Errorf("cost: %d paces for %d subplans", len(paces), len(g.Subplans))
	}
	// The three vectors share one backing array; capacities are clipped so
	// a caller's append cannot run one into the next.
	n := len(g.Subplans)
	vec := make([]float64, 2*n+g.Plan.NumQueries())
	ev := Eval{SubTotal: vec[:n:n], SubFinal: vec[n : 2*n : 2*n], QueryFinal: vec[2*n:]}
	keyBuf := make([]byte, 0, 64)
	// Counters accumulate locally and publish once per evaluation: one
	// atomic add per counter instead of one per subplan keeps concurrent
	// candidate evaluations off each other's cache lines.
	var lookups, hits, sims int64
	for _, s := range g.Subplans {
		var res SimResult
		hit := false
		if m.UseMemo {
			keyBuf = m.appendPrivateKey(keyBuf[:0], s, paces)
			lookups++
			mu := &m.memoMu[s.ID]
			mu.RLock()
			e, ok := m.memo[s.ID][string(keyBuf)]
			mu.RUnlock()
			if ok {
				hits++
				res = SimResult{PrivateTotal: e.pT, PrivateFinal: e.pF, Out: e.out}
				hit = true
			}
		}
		if !hit {
			sims++
			res, _ = m.simulate(s, paces[s.ID], outputs, false)
			res = m.applyCalibration(s, res)
			if m.UseMemo {
				mu := &m.memoMu[s.ID]
				mu.Lock()
				m.memo[s.ID][string(keyBuf)] = memoEntry{pT: res.PrivateTotal, pF: res.PrivateFinal, out: res.Out}
				mu.Unlock()
			}
		}
		outputs[s.ID] = res.Out
		ev.SubTotal[s.ID] = res.PrivateTotal
		ev.SubFinal[s.ID] = res.PrivateFinal
		ev.Total += res.PrivateTotal
		for _, q := range m.plans[s.ID].queries {
			ev.QueryFinal[q] += res.PrivateFinal
		}
	}
	if lookups != 0 {
		atomic.AddInt64(&m.Lookups, lookups)
	}
	if hits != 0 {
		atomic.AddInt64(&m.Hits, hits)
	}
	if sims != 0 {
		atomic.AddInt64(&m.Sims, sims)
	}
	if m.Trace != nil {
		// The same per-evaluation tallies feed the tracer — one attribution
		// path, counter totals independent of concurrent evaluation order.
		m.Trace.Count("cost.evals", 1)
		m.Trace.Count("cost.memo_lookups", lookups)
		m.Trace.Count("cost.memo_hits", hits)
		m.Trace.Count("cost.sims", sims)
	}
	return ev, nil
}

// appendPrivateKey renders the subplan's private pace configuration into buf.
// Callers look the key up as string(buf), which the compiler recognizes as an
// allocation-free map access; the string is materialized only on store.
func (m *Model) appendPrivateKey(buf []byte, s *mqo.Subplan, paces []int) []byte {
	buf = strconv.AppendInt(buf, int64(paces[s.ID]), 10)
	for _, d := range m.descendants[s.ID] {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(paces[d]), 10)
	}
	return buf
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
