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
//
// Failures follow one contract. A call that fails before it changes
// anything — a row that does not convert, an unknown or duplicate name, a
// failed Admit or Retire, a panic in catch-up replay included — returns its
// error and leaves the session exactly as it was. A window that fails after
// it started (a panicking operator) leaves operator state half-applied: the
// runner keeps that first failure (exec.Runner.Err), and every later Step,
// Admit, Retire and Results returns an error wrapping it and runs nothing.
type Session struct {
	engine *Engine
	// live owns the query slots: which are active, and each one's query.
	live    *opt.Live
	runner  *exec.Runner
	prof    *profile.Profiler
	windows int
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
	// this revision; they are dropped with it.
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
	// No caller reaches the runner, so it keeps no Data mirror: the table
	// logs are the one record of arrivals.
	runner.Data = nil
	return &Session{
		engine: e,
		live:   live,
		runner: runner,
		prof: profile.New(profile.Config{
			Subplans: len(live.Graph.Subplans),
			Modeled:  batchBaseline(live),
		}),
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

// graft moves the runner onto next, a clone of the live plan that Admit or
// Retire moved to a new revision, and only then installs next and rebases
// the profiler's drift baseline. A failed graft leaves the runner on its old
// executors (exec.Runner.Graft) and the session on its old revision.
func (s *Session) graft(next *opt.Live) (*exec.GraftStats, error) {
	gs, err := s.runner.Graft(next.Graph, exec.GraftOptions{})
	if err != nil {
		return nil, fmt.Errorf("ishare: graft: %w", err)
	}
	s.live = next
	s.prof.Graft(len(next.Graph.Subplans), batchBaseline(next), gs.AdoptedFrom)
	return gs, nil
}

// failed returns an error wrapping the runner's first failed window, or nil
// while every window has run.
func (s *Session) failed() error {
	if err := s.runner.Err(); err != nil {
		return fmt.Errorf("ishare: session failed earlier: %w", err)
	}
	return nil
}

// Slot returns the slot serving the named query, or -1.
func (s *Session) Slot(name string) int {
	for i := range s.live.NumSlots() {
		if q := s.live.Query(i); q.Root != nil && q.Name == name {
			return i
		}
	}
	return -1
}

// QueryNames lists the currently active query names in slot order.
func (s *Session) QueryNames() []string {
	var out []string
	for i := range s.live.NumSlots() {
		if q := s.live.Query(i); q.Root != nil {
			out = append(out, q.Name)
		}
	}
	return out
}

// Admit adds a query to the running plan under a relative final-work
// constraint (as in Engine.AddQuery). The query starts observing data from
// the beginning of the stream: shared subplans it joins are either adopted
// as-is (when their state is provably identical) or rebuilt and caught up by
// replaying the retained window history, so its results are identical to
// having been registered before the first Step. A failed Admit — a panic in
// catch-up replay included — returns its error and changes nothing: the
// session serves its old plan as if never called. After a failed Step it
// returns an error wrapping that failure.
func (s *Session) Admit(name, sql string, relConstraint float64) (*AdmitStats, error) {
	if err := s.failed(); err != nil {
		return nil, err
	}
	if s.Slot(name) >= 0 {
		return nil, fmt.Errorf("ishare: query %q already active", name)
	}
	q, err := s.engine.bindQuery(name, sql, relConstraint)
	if err != nil {
		return nil, err
	}
	abs, err := opt.AbsoluteConstraints([]plan.Query{q}, []float64{relConstraint})
	if err != nil {
		return nil, err
	}
	next := s.live.Clone()
	_, rep, err := next.Admit(q, abs[0])
	if err != nil {
		return nil, err
	}
	gs, err := s.graft(next)
	if err != nil {
		return nil, err
	}
	return admitStats(rep, gs), nil
}

// Retire removes the named query from the running plan. Operator state used
// only by this query is freed with the plan revision; shared state the
// remaining queries still need is carried over. Failures follow Admit's
// contract: a failed Retire changes nothing, and after a failed Step Retire
// returns an error wrapping that failure.
func (s *Session) Retire(name string) (*AdmitStats, error) {
	if err := s.failed(); err != nil {
		return nil, err
	}
	slot := s.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("ishare: query %q is not active", name)
	}
	next := s.live.Clone()
	rep, err := next.Retire(slot)
	if err != nil {
		return nil, err
	}
	gs, err := s.graft(next)
	if err != nil {
		return nil, err
	}
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
// operator surfaces as an error naming the window and the subplan. A row
// that does not convert to its column's type is rejected before the window
// starts: Step returns the error, nothing changed, and the session goes on.
// An error after the window started fails the session for good: the runner
// keeps it, and every later Step, Admit, Retire and Results returns an error
// wrapping it.
func (s *Session) Step(data map[string][]Row) (int64, error) {
	if err := s.failed(); err != nil {
		return 0, err
	}
	arrivals, err := convertData(s.engine.cat, data)
	if err != nil {
		return 0, err
	}
	group, err := exec.Schedule(pace.Ones(len(s.live.Graph.Subplans)))
	if err != nil {
		return 0, err
	}
	s.runner.StartColumnWindow(arrivals)
	s.runner.ArriveWindow(1, 1)
	walls := make([]int64, len(group))
	works, err := s.runner.RunGroup(group, 1, "exec", walls)
	if err != nil {
		return 0, fmt.Errorf("ishare: window %d: %w", s.windows, err)
	}
	var work int64
	for i, f := range group {
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

// TotalWork returns the modeled work that a from-scratch run of the current
// plan over every stepped window would report: the summed work units of the
// current executors, catch-up replays of rebuilt subplans included. The
// work of executors that an Admit or a Retire dropped is not in it, so it
// can fall after a graft.
func (s *Session) TotalWork() int64 { return s.runner.ReportNow().TotalWork }

// SearchSims returns the cumulative number of cost simulations the current
// plan revision's pace search ran — a diagnostic for comparing warm
// admissions against cold replans.
func (s *Session) SearchSims() int64 { return s.live.Model.Sims }

// Paces returns the current revision's pace vector.
func (s *Session) Paces() []int { return append([]int(nil), s.live.Paces...) }

// DriftSample is one subplan's execution profile for one stepped window:
// the cost model's predicted work at batch pace against the work the window
// actually cost, plus physical detail (measured wall time, firings,
// vectorized batch count) and the subplan's observed/modeled drift EWMA
// after the window.
type DriftSample = profile.Sample

// Profile returns the retained per-subplan per-window execution profiles in
// chronological order — the session's closed-loop view of how far reality
// has drifted from the cost model that chose its pace vector.
func (s *Session) Profile() []DriftSample { return s.prof.Samples() }

// Drift returns each subplan's current observed/modeled work EWMA: 1 means
// the cost model predicts this subplan perfectly, above 1 it underestimates,
// 0 means no observation yet.
func (s *Session) Drift() []float64 { return s.prof.Drifts() }

// Results returns the named query's materialized result rows over all data
// stepped so far. After a failed Step it returns an error wrapping that
// failure.
func (s *Session) Results(name string) ([]Row, error) {
	if err := s.failed(); err != nil {
		return nil, err
	}
	slot := s.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("ishare: query %q is not active", name)
	}
	return facadeRows(s.live.Query(slot).Present.Apply(s.runner.Results(slot))), nil
}
