package ishare

import (
	"fmt"

	"ishare/internal/exec"
	"ishare/internal/opt"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/profile"
)

// Session serves a shared plan online: windows of data arrive one Step at a
// time, and queries may be admitted to or retired from the running plan
// between windows without discarding the operator state (join build sides,
// group indexes, materialized buffers) accumulated so far. Admission grafts
// the new query onto the live plan — subplans whose state is unaffected are
// carried over wholesale, even when an input below them was rebuilt, and the
// rest are rebuilt and caught up by replaying the retained input history —
// and warm-starts the pace search from the previous revision's memoized cost
// model, so it re-simulates only what changed while still choosing the exact
// pace vector a from-scratch optimization would.
//
// A Session always runs the full iShare shared plan at batch pace (one
// execution per subplan per window); it is the online counterpart of
// Engine.Run, not of the scheduler.
type Session struct {
	engine  *Engine
	live    *opt.Live
	runner  *exec.Runner
	prof    *profile.Profiler
	names   []string     // slot-indexed; "" = inactive
	queries []plan.Query // slot-indexed; zero value = inactive
	// group is one window's firing sequence for the current plan revision:
	// batch pace, so a single group with one firing per subplan.
	group   []exec.Firing
	windows int
	// err is the first error Step returned. A failed window leaves operator
	// state half-applied, so from then on every Step, Admit, Retire and
	// Results returns it and runs nothing.
	err error
}

// AdmitStats reports what one admission or retirement did to the live plan.
type AdmitStats struct {
	// Slot is the query slot admitted into or retired from. Slots are
	// positional and never renumbered; retired slots are reused.
	Slot int
	// MatchedSubplans carried their operator state over from the previous
	// plan revision (their executors were adopted or reattached);
	// FreshSubplans were rebuilt and replayed from history.
	MatchedSubplans, FreshSubplans int
	// MemoSeeded counts cost-model memo entries transplanted into the new
	// revision — the warm start of the pace search. The memo pairs subplans
	// by state signature alone, whatever the executor carried over.
	MemoSeeded int
	// Sims is how many cost simulations the warm pace search ran; compare
	// against a cold replan (e.g. a fresh Session over the same queries) to
	// see the saving. Evals counts candidate evaluations.
	Sims, Evals int64
	// Replayed counts window replays performed to catch fresh subplans up.
	Replayed int
	// SharedArrangements counts indexed-state attaches during the graft
	// served by an existing arrangement instead of a rebuild;
	// FreedArrangements counts arrangements whose last sharer left with
	// this revision (reclaimed at the next window boundary).
	SharedArrangements, FreedArrangements int
	// Paces is the pace vector of the new revision.
	Paces []int
}

// StartSession begins serving the engine's registered queries online.
// Options.Approach is ignored: sessions always run the shared plan.
func (e *Engine) StartSession(o Options) (*Session, error) {
	req, err := e.request(o)
	if err != nil {
		return nil, err
	}
	live, err := opt.NewLive(req, nil)
	if err != nil {
		return nil, err
	}
	runner, err := exec.NewDeltaRunner(live.Graph, exec.DeltaDataset{})
	if err != nil {
		return nil, err
	}
	group, err := exec.Schedule(pace.Ones(len(live.Graph.Subplans)))
	if err != nil {
		return nil, err
	}
	return &Session{
		engine: e,
		live:   live,
		runner: runner,
		group:  group,
		prof: profile.New(profile.Config{
			Subplans: len(live.Graph.Subplans),
			Modeled:  batchBaseline(live),
		}),
		names:   append([]string(nil), e.names...),
		queries: append([]plan.Query(nil), e.queries...),
	}, nil
}

// batchBaseline evaluates the cost model at batch pace (one execution per
// subplan per window — exactly how Step drives the plan) and returns the
// per-subplan modeled work per window, the session profiler's drift
// baseline. nil when the model cannot evaluate (drift then stays 0).
func batchBaseline(live *opt.Live) []float64 {
	ev, err := live.Model.Evaluate(pace.Ones(len(live.Graph.Subplans)))
	if err != nil {
		return nil
	}
	return ev.SubTotal
}

// graft moves the runner, the window's firing group and the profiler's drift
// baseline to the live plan's new revision.
func (s *Session) graft() (*exec.GraftStats, error) {
	n := len(s.live.Graph.Subplans)
	group, err := exec.Schedule(pace.Ones(n))
	if err != nil {
		return nil, err
	}
	gs, err := s.runner.Graft(s.live.Graph, exec.GraftOptions{})
	if err != nil {
		return nil, err
	}
	s.group = group
	s.prof.Graft(n, batchBaseline(s.live))
	return gs, nil
}

// Slot returns the slot serving the named query, or -1.
func (s *Session) Slot(name string) int {
	for i, n := range s.names {
		if n == name && n != "" {
			return i
		}
	}
	return -1
}

// QueryNames lists the currently active query names in slot order.
func (s *Session) QueryNames() []string {
	out := make([]string, 0, len(s.names))
	for _, n := range s.names {
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Admit adds a query to the running plan under a relative final-work
// constraint (as in Engine.AddQuery). The query starts observing data from
// the beginning of the stream: shared subplans it joins are either adopted
// as-is (when their state is provably identical) or rebuilt and caught up by
// replaying the retained window history, so its results are identical to
// having been registered before the first Step.
func (s *Session) Admit(name, sql string, relConstraint float64) (*AdmitStats, error) {
	if s.err != nil {
		return nil, s.err
	}
	if relConstraint <= 0 {
		return nil, fmt.Errorf("ishare: query %s: relative constraint must be positive", name)
	}
	if s.Slot(name) >= 0 {
		return nil, fmt.Errorf("ishare: query %q already active", name)
	}
	q, err := plan.ParseAndBindQuery(name, sql, s.engine.cat)
	if err != nil {
		return nil, fmt.Errorf("ishare: query %s: %w", name, err)
	}
	abs, err := opt.AbsoluteConstraints([]plan.Query{q}, []float64{relConstraint})
	if err != nil {
		return nil, err
	}
	slot, rep, err := s.live.Admit(q, abs[0])
	if err != nil {
		return nil, err
	}
	gs, err := s.graft()
	if err != nil {
		// Best effort: put the plan back so the session stays usable.
		s.live.Retire(slot)
		return nil, err
	}
	for slot >= len(s.names) {
		s.names = append(s.names, "")
		s.queries = append(s.queries, plan.Query{})
	}
	s.names[slot] = name
	s.queries[slot] = q
	return admitStats(rep, gs), nil
}

// Retire removes the named query from the running plan. Operator state used
// only by this query is freed with the plan revision; shared state the
// remaining queries still need is carried over.
func (s *Session) Retire(name string) (*AdmitStats, error) {
	if s.err != nil {
		return nil, s.err
	}
	slot := s.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("ishare: query %q is not active", name)
	}
	rep, err := s.live.Retire(slot)
	if err != nil {
		return nil, err
	}
	gs, err := s.graft()
	if err != nil {
		return nil, err
	}
	s.names[slot] = ""
	s.queries[slot] = plan.Query{}
	return admitStats(rep, gs), nil
}

func admitStats(rep *opt.AdmitReport, gs *exec.GraftStats) *AdmitStats {
	return &AdmitStats{
		Slot:               rep.Slot,
		MatchedSubplans:    gs.Adopted,
		FreshSubplans:      gs.Rebuilt,
		MemoSeeded:         rep.MemoSeeded,
		Sims:               rep.Sims,
		Evals:              rep.Evals,
		Replayed:           gs.Replayed,
		SharedArrangements: gs.ArrangementsShared,
		FreedArrangements:  gs.ArrangementsFreed,
		Paces:              append([]int(nil), rep.Paces...),
	}
}

// Step feeds one window of data (per table, rows in arrival order) through
// the plan — the batch-pace schedule is a single firing group, run on the
// calling goroutine — and returns the work units it cost. A panicking
// operator surfaces as an error naming the subplan. The first error Step
// returns fails the session for good: every later call returns it.
func (s *Session) Step(data map[string][]Row) (int64, error) {
	if s.err != nil {
		return 0, s.err
	}
	work, err := s.step(data)
	if err != nil {
		s.err = err
	}
	return work, err
}

func (s *Session) step(data map[string][]Row) (int64, error) {
	ds, err := s.engine.convertDataset(data)
	if err != nil {
		return 0, err
	}
	s.runner.StartWindow(exec.InsertStream(ds))
	s.runner.ArriveWindow(1, 1)
	walls := make([]int64, len(s.group))
	works, err := s.runner.RunGroup(s.group, 1, "exec", walls)
	if err != nil {
		return 0, fmt.Errorf("ishare: window %d: %w", s.windows, err)
	}
	var work int64
	for i, f := range s.group {
		w := works[i].Total()
		s.prof.Observe(f.Subplan, w, walls[i], s.runner.Execs[f.Subplan].LastBatches())
		work += w
	}
	s.prof.FlushWindow(s.windows)
	s.windows++
	return work, nil
}

// Windows returns how many windows have been stepped.
func (s *Session) Windows() int { return s.windows }

// TotalWork returns the summed work units of every execution so far,
// including catch-up replays performed by admissions.
func (s *Session) TotalWork() int64 { return s.runner.ReportNow().TotalWork }

// SearchSims returns the cumulative number of cost simulations the current
// plan revision's pace search ran — a diagnostic for comparing warm
// admissions against cold replans.
func (s *Session) SearchSims() int64 { return s.live.Model.Sims }

// Paces returns the current revision's pace vector.
func (s *Session) Paces() []int { return append([]int(nil), s.live.Paces...) }

// DriftSample is one subplan's execution profile for one stepped window:
// the cost model's predicted work at batch pace against the work the window
// actually cost, plus physical detail (measured wall time, vectorized batch
// count) and the subplan's observed/modeled drift EWMA after the window.
type DriftSample struct {
	Window  int
	Subplan int
	// Modeled is the cost model's per-window work prediction (0 when the
	// model could not evaluate).
	Modeled float64
	// Work is the window's observed work units.
	Work int64
	// WallNS is the window's measured execution wall time in nanoseconds.
	WallNS int64
	// Batches counts the vectorized chunks the window processed.
	Batches int64
	// Drift is the observed/modeled EWMA after this window.
	Drift float64
}

// Profile returns the retained per-subplan per-window execution profiles in
// chronological order — the session's closed-loop view of how far reality
// has drifted from the cost model that chose its pace vector.
func (s *Session) Profile() []DriftSample {
	samples := s.prof.Samples()
	out := make([]DriftSample, len(samples))
	for i, sm := range samples {
		out[i] = DriftSample{
			Window:  sm.Window,
			Subplan: sm.Subplan,
			Modeled: sm.Modeled,
			Work:    sm.Work,
			WallNS:  sm.WallNS,
			Batches: sm.Batches,
			Drift:   sm.Drift,
		}
	}
	return out
}

// Drift returns each subplan's current observed/modeled work EWMA: 1 means
// the cost model predicts this subplan perfectly, above 1 it underestimates,
// 0 means no observation yet.
func (s *Session) Drift() []float64 { return s.prof.Drifts() }

// Results returns the named query's materialized result rows over all data
// stepped so far.
func (s *Session) Results(name string) ([]Row, error) {
	if s.err != nil {
		return nil, s.err
	}
	slot := s.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("ishare: query %q is not active", name)
	}
	return facadeRows(s.queries[slot].Present.Apply(s.runner.Results(slot))), nil
}
