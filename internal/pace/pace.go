// Package pace implements iShare's pace-configuration search (paper §3):
// the incrementability metric redefined for shared execution with per-query
// final-work constraints (Equations 1–2), the greedy search that repeatedly
// raises the pace of the subplan with the highest incrementability, and the
// reverse greedy used after subplan decomposition that lowers the pace of
// the subplan with the lowest incrementability.
package pace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/trace"
)

// ErrDeadline is returned when an optimizer exceeds its deadline (the
// experiments mark such runs DNF, as the paper does for the
// no-memoization baseline in Figure 15).
var ErrDeadline = errors.New("pace: optimization deadline exceeded")

// Optimizer searches pace configurations against a cost model. A search runs
// on the caller's goroutine and costs its candidates one after another; ties
// on incrementability break toward the lowest subplan ID.
type Optimizer struct {
	// Model evaluates configurations.
	Model *cost.Model
	// MaxPace is J, the largest allowed pace per subplan.
	MaxPace int
	// Constraints holds each query's absolute final-work constraint L(q)
	// in cost-model units.
	Constraints []float64
	// Deadline, when nonzero, aborts the search with ErrDeadline.
	Deadline time.Time
	// Deprecated: ignored; the pace search runs on the caller's goroutine.
	// Removed once the benchmark stops setting it (ROADMAP, "One
	// observation seam").
	Workers int
	// Trace optionally records the search as one span plus one structured
	// Decision per greedy step (every candidate considered with its
	// incrementability, and the accepted action). Nil disables tracing.
	Trace *trace.Tracer

	// Steps counts greedy iterations; Evals counts cost evaluations.
	Steps, Evals int64

	// reach[i] is the queries whose final work raising subplan i, alone or
	// with its ancestors, can change: those of i and of its ancestors.
	reach []mqo.Bitset
}

// NewOptimizer wires an optimizer.
func NewOptimizer(m *cost.Model, constraints []float64, maxPace int) (*Optimizer, error) {
	if maxPace < 1 {
		return nil, fmt.Errorf("pace: max pace %d < 1", maxPace)
	}
	if len(constraints) != m.Graph.Plan.NumQueries() {
		return nil, fmt.Errorf("pace: %d constraints for %d queries", len(constraints), m.Graph.Plan.NumQueries())
	}
	reach := make([]mqo.Bitset, len(m.Graph.Subplans))
	for i, s := range m.Graph.Subplans {
		reach[i] = s.Queries
		for _, a := range m.Ancestors(i) {
			reach[i] = reach[i].Union(m.Graph.Subplans[a].Queries)
		}
	}
	return &Optimizer{Model: m, MaxPace: maxPace, Constraints: constraints, reach: reach}, nil
}

// Benefit implements Equation 1: the reduction in missed final work going
// from the lazier evaluation b to the eagerer evaluation a, bounded below by
// each query's constraint.
func (o *Optimizer) Benefit(a, b cost.Eval) float64 {
	var sum float64
	for q, l := range o.Constraints {
		bounded := math.Max(l, a.QueryFinal[q])
		if d := b.QueryFinal[q] - bounded; d > 0 {
			sum += d
		}
	}
	return sum
}

// Incrementability implements Equation 2 for eager evaluation a vs lazy b.
// A configuration that reduces total work while helping (or not hurting)
// returns +Inf: it strictly dominates.
func (o *Optimizer) Incrementability(a, b cost.Eval) float64 {
	ben := o.Benefit(a, b)
	dT := a.Total - b.Total
	if dT <= 0 {
		if ben > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return ben / dT
}

// missed returns the queries whose final work exceeds their constraint.
func (o *Optimizer) missed(e cost.Eval) mqo.Bitset {
	var b mqo.Bitset
	for q, l := range o.Constraints {
		if e.QueryFinal[q] > l {
			b = b.With(q)
		}
	}
	return b
}

// meets reports whether every query's final work is within its constraint.
func (o *Optimizer) meets(e cost.Eval) bool { return o.missed(e).Empty() }

// mayScore reports whether raising subplan i, alone or with its ancestors,
// can have a nonzero incrementability against an incumbent that misses the
// goals of the queries in missed. It cannot unless one of those queries is in
// i's reach: a query out of reach uses only subplans the raise leaves clean,
// so its final work is re-summed from the same values in the same order and
// is bitwise unchanged; a query in reach that meets its goal has
// cur − max(goal, cand) ≤ 0. Either way Benefit adds nothing, so it is
// exactly 0 and Incrementability +0, whatever the raise does to total work.
func (o *Optimizer) mayScore(i int, missed mqo.Bitset) bool {
	return !o.reach[i].Intersect(missed).Empty()
}

// eval wraps Model.EvaluateDelta with bookkeeping and deadline enforcement.
func (o *Optimizer) eval(base *cost.Evaluation, p []int, out *cost.Evaluation) error {
	if !o.Deadline.IsZero() && time.Now().After(o.Deadline) {
		return ErrDeadline
	}
	o.Evals++
	return o.Model.EvaluateDelta(base, p, out)
}

// search is the evaluation state of one search. cur, the incumbent, is the
// evaluated configuration the search stands at: every candidate is costed
// relative to it, so only the subplans a move touches and their ancestors are
// re-costed. cand and best are two Evaluations a step swaps so that the best
// candidate costed so far survives while the next one is written; commit
// makes best the incumbent.
type search struct {
	o               *Optimizer
	cur, cand, best *cost.Evaluation
	p               []int // cur's paces; a candidate move is applied to it and undone
	ids             []int // the step's candidate subplans, ascending
	// scores holds every candidate's score, parallel to ids; only the
	// decision trace reads it, so it is nil when tracing is off.
	scores []float64
}

// startSearch evaluates the start configuration in full: the first incumbent.
func (o *Optimizer) startSearch(start []int, traced bool) (*search, error) {
	s := &search{o: o, cur: new(cost.Evaluation), cand: new(cost.Evaluation), best: new(cost.Evaluation),
		p: append([]int(nil), start...)}
	if traced {
		s.scores = make([]float64, len(start))
	}
	if err := o.eval(nil, start, s.cur); err != nil {
		return nil, err
	}
	return s, nil
}

// move changes the pace of subplan i — and, for a chain, of all its
// ancestors — by delta.
func (s *search) move(p []int, i, delta int, chain bool) {
	p[i] += delta
	if chain {
		for _, a := range s.o.Model.Ancestors(i) {
			p[a] += delta
		}
	}
}

// score rates a costed candidate against the incumbent: a raise by the
// incrementability it buys, a lowering by the incrementability it gives up
// (the incumbent is then the eager side), eligible only if it causes no new
// constraint miss.
func (s *search) score(cand cost.Eval, delta int) (float64, bool) {
	if delta > 0 {
		return s.o.Incrementability(cand, s.cur.Eval), true
	}
	return s.o.Incrementability(s.cur.Eval, cand), s.o.noNewMisses(cand, s.cur.Eval)
}

// better orders scores: raises want the highest, lowerings the lowest.
func better(a, b float64, delta int) bool {
	if delta > 0 {
		return a > b
	}
	return a < b
}

// pick costs every candidate move in s.ids against the incumbent, in order,
// and returns the index into s.ids of the best eligible one (-1 when there is
// none) and its score; s.best holds its evaluation if it was costed, which a
// lowering always is and a raise with a positive score too. A raise that
// cannot score (see mayScore) is not costed: it scores 0, which is what
// costing it would give. A candidate must score strictly better to
// displace an earlier one, so ties break toward the lowest subplan id. An
// error (in practice only ErrDeadline) ends the step at the candidate that
// failed.
func (s *search) pick(delta int, chain bool) (int, float64, error) {
	k, best := -1, 0.0
	var missed mqo.Bitset
	if delta > 0 {
		missed = s.o.missed(s.cur.Eval)
	}
	for i, id := range s.ids {
		score, ok, costed := 0.0, true, delta < 0 || s.o.mayScore(id, missed)
		if costed {
			s.move(s.p, id, delta, chain)
			err := s.o.eval(s.cur, s.p, s.cand)
			s.move(s.p, id, -delta, chain)
			if err != nil {
				return -1, 0, err
			}
			score, ok = s.score(s.cand.Eval, delta)
		}
		if s.scores != nil {
			s.scores[i] = score
		}
		if ok && (k < 0 || better(score, best, delta)) {
			k, best = i, score
			if costed {
				s.cand, s.best = s.best, s.cand
			}
		}
	}
	return k, best, nil
}

// commit makes the step's best candidate the incumbent; the old incumbent's
// buffers become the spare.
func (s *search) commit() {
	s.cur, s.best = s.best, s.cur
	copy(s.p, s.cur.Paces)
}

// childMin returns the minimum pace among subplan i's children (MaxPace+1
// when it has none): a parent's pace may not exceed any child's.
func (o *Optimizer) childMin(i int, p []int) int {
	s := o.Model.Graph.Subplans[i]
	min := o.MaxPace + 1
	for _, c := range s.Children {
		if p[c.ID] < min {
			min = p[c.ID]
		}
	}
	return min
}

// parentMax returns the maximum pace among subplan i's parents (0 when it
// has none): lowering a child's pace below a parent's would starve it.
func (o *Optimizer) parentMax(i int, p []int) int {
	s := o.Model.Graph.Subplans[i]
	max := 0
	for _, par := range s.Parents {
		if p[par.ID] > max {
			max = p[par.ID]
		}
	}
	return max
}

// Track ids within the "optimizer" trace process.
const (
	tidGreedy  = 1
	tidReverse = 2
	tidBuild   = 3
	tidSplit   = 4
	tidParse   = 5
)

// searchTrace is the per-search tracing state: the trace track plus the open
// search span. The zero value (tracing disabled) no-ops everywhere.
type searchTrace struct {
	t        *trace.Tracer
	phase    string
	pid, tid int
	region   trace.Region
	step     int
}

// beginSearch opens the search span on the optimizer process.
func (o *Optimizer) beginSearch(tid int, name string) *searchTrace {
	if !o.Trace.Enabled() {
		return &searchTrace{}
	}
	st := &searchTrace{t: o.Trace, phase: name, pid: o.Trace.Process("optimizer"), tid: tid}
	st.t.Thread(st.pid, st.tid, name)
	st.region = o.Trace.Begin(st.pid, st.tid, "opt", name,
		trace.Arg{Key: "subplans", Value: len(o.Model.Graph.Subplans)})
	return st
}

// end closes the search span with the search totals and publishes them to
// the shared pace.steps / pace.evals counters the EXPLAIN report reads.
func (st *searchTrace) end(o *Optimizer) {
	if st.t == nil {
		return
	}
	st.region.End(
		trace.Arg{Key: "steps", Value: o.Steps},
		trace.Arg{Key: "evals", Value: o.Evals})
	st.t.Count("pace.steps", o.Steps)
	st.t.Count("pace.evals", o.Evals)
}

// decide records one step's Decision; ids and scores, when given, list every
// candidate considered with its score.
func (st *searchTrace) decide(action string, chosen int, score float64, accepted bool, detail string,
	ids []int, scores []float64) {
	if st.t == nil {
		return
	}
	st.step++
	d := trace.Decision{
		Phase: st.phase, Step: st.step, Subplan: chosen, Action: action,
		Score: score, Accepted: accepted, Detail: detail,
	}
	if len(ids) > 0 {
		d.Candidates = make([]trace.Candidate, len(ids))
		for k, i := range ids {
			d.Candidates[k] = trace.Candidate{Subplan: i, Score: scores[k]}
		}
	}
	st.t.Decide(st.pid, st.tid, d)
}

// Greedy finds a pace configuration starting from batch execution (all
// paces 1), repeatedly raising the pace of the subplan with the highest
// incrementability until every constraint is met, every pace reaches
// MaxPace, or no single increment yields any benefit. Greedy only ever
// raises paces, so on a memo-transplanted model (Replan) it walks the path —
// and picks the pace vector — of a cold search, skipping only the
// simulations an earlier plan revision already performed. The search carries
// the pprof label phase=opt, so CPU profiles attribute search samples.
func (o *Optimizer) Greedy() (p []int, ev cost.Eval, err error) {
	pprof.Do(context.Background(), pprof.Labels("phase", "opt"), func(context.Context) {
		p, ev, err = o.greedy()
	})
	return p, ev, err
}

func (o *Optimizer) greedy() ([]int, cost.Eval, error) {
	st := o.beginSearch(tidGreedy, "pace.greedy")
	defer st.end(o)
	s, err := o.startSearch(Ones(len(o.Model.Graph.Subplans)), st.t != nil)
	if err != nil {
		return nil, cost.Eval{}, err
	}
	for {
		if o.meets(s.cur.Eval) {
			st.decide("stop", -1, 0, false, "all constraints met", nil, nil)
			return s.p, s.cur.Eval, nil
		}
		if o.allAtMax(s.p) {
			st.decide("stop", -1, 0, false, "every pace at MaxPace", nil, nil)
			return s.p, s.cur.Eval, nil
		}
		o.Steps++
		s.ids = s.ids[:0]
		for i, v := range s.p {
			// A raise must stay within MaxPace and not out-pace a child.
			if v < o.MaxPace && v+1 <= o.childMin(i, s.p) {
				s.ids = append(s.ids, i)
			}
		}
		k, bestInc, err := s.pick(+1, false)
		if err != nil {
			return nil, cost.Eval{}, err
		}
		best := -1
		if k >= 0 {
			best = s.ids[k]
		}
		raised := bestInc > 0
		st.decide("raise", best, bestInc, raised, "", s.ids, s.scores)
		if raised {
			s.commit()
			continue
		}
		// No single increment reduces any query's missed final work.
		// Speeding up a subplan alone can be self-defeating — its extra
		// retraction churn inflates its parents' final executions — so
		// try chain increments: a subplan together with its upward
		// closure of ancestors, which consume the churn eagerly too.
		s.chainCandidates()
		k, score, err := s.pick(+1, true)
		if err != nil {
			return nil, cost.Eval{}, err
		}
		if k < 0 || score <= 0 {
			// The remaining misses are not incrementable at this
			// granularity.
			st.decide("stop", -1, 0, false,
				"remaining misses not incrementable (no raise or chain helps)", nil, nil)
			return s.p, s.cur.Eval, nil
		}
		st.decide("chain", s.ids[k], score, true,
			"raised subplan with its ancestor closure", nil, nil)
		s.commit()
	}
}

// chainCandidates lists in s.ids the subplans that can be raised by one
// together with all of their ancestors: nothing in that closure may pass
// MaxPace or out-pace a child. The incumbent satisfies the parent ≤ child
// order and a chain keeps it between members of the closure, so only the
// closure's own child edges need checking.
func (s *search) chainCandidates() {
	o := s.o
	s.ids = s.ids[:0]
	for i := range s.p {
		s.move(s.p, i, +1, true)
		valid := s.p[i] <= o.MaxPace && s.p[i] <= o.childMin(i, s.p)
		for _, a := range o.Model.Ancestors(i) {
			valid = valid && s.p[a] <= o.MaxPace && s.p[a] <= o.childMin(a, s.p)
		}
		s.move(s.p, i, -1, true)
		if valid {
			s.ids = append(s.ids, i)
		}
	}
}

// ReverseGreedy starts from an eager configuration and repeatedly lowers
// the pace of the subplan with the lowest incrementability — the one whose
// eagerness buys the least — as long as no query's bounded final work gets
// worse (paper §4.2). It is used to re-find paces after decomposition.
func (o *Optimizer) ReverseGreedy(start []int) (p []int, ev cost.Eval, err error) {
	pprof.Do(context.Background(), pprof.Labels("phase", "opt"), func(context.Context) {
		p, ev, err = o.reverseGreedy(start)
	})
	return p, ev, err
}

func (o *Optimizer) reverseGreedy(start []int) ([]int, cost.Eval, error) {
	st := o.beginSearch(tidReverse, "pace.reverse")
	defer st.end(o)
	s, err := o.startSearch(start, st.t != nil)
	if err != nil {
		return nil, cost.Eval{}, err
	}
	for {
		o.Steps++
		s.ids = s.ids[:0]
		for i, v := range s.p {
			// A lowering must stay above 0 and not let a parent out-pace it.
			if v > 1 && v-1 >= o.parentMax(i, s.p) {
				s.ids = append(s.ids, i)
			}
		}
		// The winner has the least lost benefit per unit of work saved.
		k, bestInc, err := s.pick(-1, false)
		if err != nil {
			return nil, cost.Eval{}, err
		}
		if k < 0 || math.IsInf(bestInc, 1) {
			st.decide("stop", -1, 0, false,
				"no lowering keeps every bounded constraint", nil, nil)
			return s.p, s.cur.Eval, nil
		}
		best := s.ids[k]
		if s.best.Total >= s.cur.Total && bestInc > 0 {
			// Laziness must save work unless it is free.
			st.decide("stop", best, bestInc, false,
				"cheapest lowering no longer saves work", nil, nil)
			return s.p, s.cur.Eval, nil
		}
		st.decide("lower", best, bestInc, true, "", s.ids, s.scores)
		s.commit()
	}
}

// noNewMisses reports whether cand's final work stays within each query's
// constraint, or at least does not exceed cur's existing miss.
func (o *Optimizer) noNewMisses(cand, cur cost.Eval) bool {
	for q, l := range o.Constraints {
		bound := math.Max(l, cur.QueryFinal[q])
		if cand.QueryFinal[q] > bound+1e-9 {
			return false
		}
	}
	return true
}

func (o *Optimizer) allAtMax(p []int) bool {
	for _, v := range p {
		if v < o.MaxPace {
			return false
		}
	}
	return true
}

// Ones returns the batch configuration for a graph of n subplans.
func Ones(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = 1
	}
	return p
}
