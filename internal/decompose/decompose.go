package decompose

import (
	"fmt"
	"sort"
	"time"

	"ishare/internal/cost"
	"ishare/internal/mqo"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/trace"
)

// Options tunes the decomposer.
type Options struct {
	// MaxPace is the largest pace considered anywhere.
	MaxPace int
	// Partial enables subtree (partial) decomposition candidates in
	// addition to whole-subplan splits (paper §4.3).
	Partial bool
	// BruteForce replaces the clustering algorithm with exhaustive split
	// enumeration (the paper's iShare (Brute-Force) variant).
	BruteForce bool
	// Unshare disables decomposition entirely when false, yielding the
	// paper's iShare (w/o unshare) variant: nonuniform paces only.
	Unshare bool
	// DisableMemo turns off the cost model's memo table (the Figure 15
	// "w/o memo" ablation).
	DisableMemo bool
	// Deadline, when nonzero, aborts optimization with pace.ErrDeadline.
	Deadline time.Time
	// Deprecated: ignored; the pace search runs on the caller's goroutine.
	// Removed once the benchmark stops setting it (ROADMAP, "One
	// observation seam").
	Workers int
	// Calibration carries per-subplan correction factors learned from a
	// previous recurrence (paper §3.2); base signatures survive rebuilds,
	// so the factors apply to decomposed plans too.
	Calibration cost.Calibration
	// Tracer, when non-nil, receives build/search spans, memo counters and
	// a structured decision log: one "propose" per clustering candidate and
	// one "unshare" verdict per rebuild attempt.
	Tracer *trace.Tracer
}

// Decomposer runs iShare's end-to-end optimization: MQO shared plan →
// greedy nonuniform paces → per-subplan decomposition with rebuild and
// reverse-greedy pace correction (paper §4.4).
type Decomposer struct {
	// Queries are the bound single-query plans.
	Queries []plan.Query
	// Constraints are absolute final-work constraints in cost units.
	Constraints []float64
	Opts        Options

	// Rebuilds and Accepted count decomposition attempts and adoptions.
	Rebuilds, Accepted int
	// Evals counts cost evaluations across all optimizer phases.
	Evals int64

	splitStep int // decision-log sequence number on the split track
	// arena is the simulation state all of the decomposer's local problems
	// share.
	arena cost.Arena
}

// decide appends one decomposition decision to the tracer's split track.
func (d *Decomposer) decide(action string, subplan int, score float64, accepted bool, detail string) {
	tr := d.Opts.Tracer
	if tr == nil {
		return
	}
	pid := tr.Process("optimizer")
	tr.Thread(pid, 4, "split")
	d.splitStep++
	tr.Decide(pid, 4, trace.Decision{
		Phase: "decompose", Step: d.splitStep, Subplan: subplan,
		Action: action, Score: score, Accepted: accepted, Detail: detail,
	})
}

// Result is an optimized shared plan with its pace configuration.
type Result struct {
	Graph *mqo.Graph
	Model *cost.Model
	Paces []int
	Eval  cost.Eval
	// Splits records the adopted decomposition: base signature of each
	// split operator → the partition of its query set.
	Splits map[string][]mqo.Bitset
}

// Optimize runs the full pipeline.
func (d *Decomposer) Optimize() (*Result, error) {
	if d.Opts.MaxPace < 1 {
		return nil, fmt.Errorf("decompose: max pace %d < 1", d.Opts.MaxPace)
	}
	splits := map[string][]mqo.Bitset{}
	g, m, err := d.build(splits)
	if err != nil {
		return nil, err
	}
	opt, err := d.newOptimizer(m)
	if err != nil {
		return nil, err
	}
	paces, eval, err := opt.Greedy()
	if err != nil {
		return nil, err
	}
	d.Evals += opt.Evals
	res := &Result{Graph: g, Model: m, Paces: paces, Eval: eval, Splits: splits}
	if !d.Opts.Unshare {
		return res, nil
	}

	// Apply decomposition subplan by subplan, parents before children
	// (paper §4.4). Each accepted split rebuilds the plan, so track
	// processed subplans by their root's stable base signature.
	processed := map[string]bool{}
	for {
		s := d.nextShared(res.Graph, processed)
		if s == nil {
			return res, nil
		}
		processed[s.Root.BaseSignature()] = true
		if err := d.trySplit(res, s); err != nil {
			return nil, err
		}
	}
}

// nextShared returns the first unprocessed shared subplan in parent→child
// order.
func (d *Decomposer) nextShared(g *mqo.Graph, processed map[string]bool) *mqo.Subplan {
	for i := len(g.Subplans) - 1; i >= 0; i-- {
		s := g.Subplans[i]
		if s.Queries.Count() < 2 {
			continue
		}
		if processed[s.Root.BaseSignature()] {
			continue
		}
		return s
	}
	return nil
}

// trySplit evaluates decomposition candidates for one subplan and adopts
// the rebuild if it lowers total work.
func (d *Decomposer) trySplit(res *Result, s *mqo.Subplan) error {
	cands, err := d.Candidates(res, s)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		d.decide("keep", s.ID, 0, true, "no split with positive local sharing benefit")
		return nil
	}
	for _, cand := range cands {
		if len(cand.Parts) < 2 {
			continue
		}
		d.decide("propose", s.ID, cand.LocalGain, true,
			fmt.Sprintf("%d-way split over %d ops, local gain %.1f", len(cand.Parts), len(cand.Ops), cand.LocalGain))
		if err := d.tryRebuild(res, cand, s.ID); err != nil {
			return err
		}
	}
	return nil
}

// Candidate is one proposed decomposition: a split applied to a set of
// operators (the whole subplan, or a root-sharing subtree for partial
// decomposition).
type Candidate struct {
	// Ops are the operators to split, identified by base signature.
	Ops []string
	// Parts is the query-set partition.
	Parts []Partition
	// LocalGain is the split's local total-work reduction vs staying
	// merged.
	LocalGain float64
}

// Candidates builds the local problems for a subplan and solves them with
// clustering (or brute force). With Partial enabled it also proposes
// subtree splits, growing the subtree from the root one nearest operator at
// a time (paper §4.3 bounds candidates by the operator count).
func (d *Decomposer) Candidates(res *Result, s *mqo.Subplan) ([]Candidate, error) {
	shares, err := d.localShares(res, s)
	if err != nil {
		return nil, err
	}
	opOuts, err := res.Model.OpOutputs(s, res.Paces)
	if err != nil {
		return nil, err
	}
	inputs, err := res.Model.SubplanInputs(s, res.Paces)
	if err != nil {
		return nil, err
	}

	subtrees := [][]*mqo.Op{s.Ops}
	if d.Opts.Partial && len(s.Ops) > 1 {
		subtrees = append(subtrees, d.subtreeCandidates(s)...)
	}

	var cands []Candidate
	for _, ops := range subtrees {
		lp := d.localProblem(s, ops, shares, opOuts, inputs)
		merged := lp.SelectedPace(s.Queries, 1)
		var parts []Partition
		// Brute force enumerates Bell(n) set partitions; beyond eight
		// queries it falls back to clustering to stay tractable.
		if d.Opts.BruteForce && s.Queries.Count() <= 8 {
			parts = BruteForce(lp)
		} else {
			parts = Cluster(lp)
		}
		if len(parts) < 2 {
			continue
		}
		gain := merged.Total - SplitTotal(parts)
		if gain <= 0 {
			continue
		}
		sigs := make([]string, len(ops))
		for i, o := range ops {
			sigs[i] = o.BaseSignature()
		}
		cands = append(cands, Candidate{Ops: sigs, Parts: parts, LocalGain: gain})
	}
	// Best local gain first: the rebuild loop adopts the first improving
	// candidate.
	sort.Slice(cands, func(i, j int) bool { return cands[i].LocalGain > cands[j].LocalGain })
	return cands, nil
}

// subtreeCandidates grows root-sharing subtrees by repeatedly adding the
// operator closest to the root (BFS order), excluding the full subplan
// (already covered).
func (d *Decomposer) subtreeCandidates(s *mqo.Subplan) [][]*mqo.Op {
	member := make(map[*mqo.Op]bool, len(s.Ops))
	for _, o := range s.Ops {
		member[o] = true
	}
	var bfs []*mqo.Op
	queue := []*mqo.Op{s.Root}
	seen := map[*mqo.Op]bool{s.Root: true}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		bfs = append(bfs, o)
		for _, c := range o.Children {
			if member[c] && !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	var out [][]*mqo.Op
	for n := 1; n < len(bfs); n++ {
		out = append(out, bfs[:n:n])
	}
	return out
}

// localProblem assembles the LocalProblem for a subtree of s.
func (d *Decomposer) localProblem(s *mqo.Subplan, ops []*mqo.Op, shares map[int]float64,
	opOuts map[*mqo.Op]cost.Profile, inputs map[*mqo.Op][]cost.Profile) *LocalProblem {

	member := make(map[*mqo.Op]bool, len(ops))
	for _, o := range ops {
		member[o] = true
	}
	lpInputs := make(map[*mqo.Op][]cost.Profile)
	for _, o := range ops {
		if o.Kind == mqo.KindScan {
			lpInputs[o] = inputs[o]
			continue
		}
		profs := make([]cost.Profile, len(o.Children))
		for i, c := range o.Children {
			switch {
			case member[c]:
				// Simulated inline.
			case subplanMember(s, c):
				// Below the subtree cut but inside the subplan: its
				// simulated output under the current configuration.
				profs[i] = opOuts[c]
			default:
				profs[i] = inputs[o][i]
			}
		}
		lpInputs[o] = profs
	}
	constraints := make(map[int]float64, s.Queries.Count())
	for _, q := range s.Queries.Members() {
		constraints[q] = d.Constraints[q] * shares[q]
	}
	// Subtree ops must be ordered children-first for simulation; s.Ops is,
	// so sort by position within it.
	pos := make(map[*mqo.Op]int, len(s.Ops))
	for i, o := range s.Ops {
		pos[o] = i
	}
	ordered := append([]*mqo.Op(nil), ops...)
	sort.Slice(ordered, func(i, j int) bool { return pos[ordered[i]] < pos[ordered[j]] })
	return &LocalProblem{
		Sub:         &mqo.Subplan{Root: s.Root, Ops: ordered, Queries: s.Queries},
		Inputs:      lpInputs,
		Constraints: constraints,
		MaxPace:     d.Opts.MaxPace,
		arena:       &d.arena,
	}
}

func subplanMember(s *mqo.Subplan, o *mqo.Op) bool {
	for _, x := range s.Ops {
		if x == o {
			return true
		}
	}
	return false
}

// localShares computes, per query, the fraction of the query's batch final
// work attributable to this subplan — the scaling that turns absolute
// constraints into local ones (paper §4.1.1).
func (d *Decomposer) localShares(res *Result, s *mqo.Subplan) (map[int]float64, error) {
	batch, err := res.Model.Evaluate(pace.Ones(len(res.Graph.Subplans)))
	if err != nil {
		return nil, err
	}
	shares := make(map[int]float64, s.Queries.Count())
	for _, q := range s.Queries.Members() {
		if batch.QueryFinal[q] > 0 {
			shares[q] = batch.SubFinal[s.ID] / batch.QueryFinal[q]
		} else {
			shares[q] = 1
		}
	}
	return shares, nil
}

// tryRebuild rebuilds the plan with the candidate split added, derives the
// initial pace configuration from the current one (paper §4.2 steps 1–2),
// runs the reverse greedy, and adopts the result if it lowers total work.
func (d *Decomposer) tryRebuild(res *Result, cand Candidate, sid int) error {
	d.Rebuilds++
	splits := make(map[string][]mqo.Bitset, len(res.Splits)+len(cand.Ops))
	for k, v := range res.Splits {
		splits[k] = v
	}
	parts := make([]mqo.Bitset, len(cand.Parts))
	for i, p := range cand.Parts {
		parts[i] = p.Queries
	}
	for _, sig := range cand.Ops {
		splits[sig] = parts
	}
	g2, m2, err := d.build(splits)
	if err != nil {
		return err
	}
	// Initial paces: each new subplan adopts the largest pace among the
	// original subplans its operators derive from (merging rule).
	origPace := make(map[string]int)
	for _, s := range res.Graph.Subplans {
		for _, o := range s.Ops {
			origPace[o.BaseSignature()] = res.Paces[s.ID]
		}
	}
	p0 := make([]int, len(g2.Subplans))
	for _, s2 := range g2.Subplans {
		p := 1
		for _, o := range s2.Ops {
			if op, ok := origPace[o.BaseSignature()]; ok && op > p {
				p = op
			}
		}
		p0[s2.ID] = p
	}
	// Enforce parent <= child on the derived start (splits can reshape
	// edges).
	for i := len(g2.Subplans) - 1; i >= 0; i-- {
		s2 := g2.Subplans[i]
		for _, c := range s2.Children {
			if p0[c.ID] < p0[s2.ID] {
				p0[c.ID] = p0[s2.ID]
			}
		}
	}
	opt, err := d.newOptimizer(m2)
	if err != nil {
		return err
	}
	p2, e2, err := opt.ReverseGreedy(p0)
	if err != nil {
		return err
	}
	d.Evals += opt.Evals
	adopted := e2.Total < res.Eval.Total
	d.decide("unshare", sid, res.Eval.Total-e2.Total, adopted,
		fmt.Sprintf("rebuild total %.1f vs current %.1f", e2.Total, res.Eval.Total))
	if adopted {
		d.Accepted++
		res.Graph, res.Model, res.Paces, res.Eval, res.Splits = g2, m2, p2, e2, splits
	}
	return nil
}

// build constructs the shared plan under the current splits.
func (d *Decomposer) build(splits map[string][]mqo.Bitset) (*mqo.Graph, *cost.Model, error) {
	opts := mqo.BuildOptions{Trace: d.Opts.Tracer, Classes: ClassesFromSplits(splits)}
	sp, err := mqo.BuildWithOptions(d.Queries, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		return nil, nil, err
	}
	m := cost.NewModel(g)
	m.Trace = d.Opts.Tracer
	if d.Opts.DisableMemo {
		m.UseMemo = false
	}
	if d.Opts.Calibration != nil {
		m.SetCalibration(d.Opts.Calibration)
	}
	return g, m, nil
}

// newOptimizer wires a pace optimizer with the decomposer's deadline.
func (d *Decomposer) newOptimizer(m *cost.Model) (*pace.Optimizer, error) {
	o, err := pace.NewOptimizer(m, d.Constraints, d.Opts.MaxPace)
	if err != nil {
		return nil, err
	}
	o.Deadline = d.Opts.Deadline
	o.Trace = d.Opts.Tracer
	return o, nil
}

// ClassesFromSplits freezes an adopted decomposition into a sharing-class
// function for mqo.BuildOptions.Classes: at each split operator (by base
// signature), queries land in the class of the recorded partition that
// contains them. Queries outside every recorded partition — e.g. a query
// admitted to a live plan after the decomposition was chosen — default to
// class 0, the maximally shared side, so online admission can rebuild a
// decomposed plan without re-running the decomposer.
func ClassesFromSplits(splits map[string][]mqo.Bitset) func(sig string, q int) int {
	if len(splits) == 0 {
		return nil
	}
	return func(sig string, q int) int {
		for i, p := range splits[sig] {
			if p.Has(q) {
				return i + 1
			}
		}
		return 0
	}
}
