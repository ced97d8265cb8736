package opt

import (
	"math"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/pace"
	"ishare/internal/plan"
)

// liveRequest binds the named TPC-H queries and wraps them in a Request
// with per-query absolute constraints derived from rels.
func liveRequest(t *testing.T, rels []float64, names ...string) (Request, []plan.Query, []float64) {
	t.Helper()
	queries, _ := bindSet(t, names...)
	abs, err := AbsoluteConstraints(queries, rels)
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Queries:     queries[:len(queries)-1],
		Constraints: abs[:len(abs)-1],
		MaxPace:     10,
	}, queries, abs
}

// TestLiveAdmitWarmStart: admitting a query must warm-start the pace search
// from the previous revision's memoized cost model — strictly fewer subplan
// simulations than a cold replan over the same final query set — while
// walking the exact same search path (identical optimizer evaluation count)
// and therefore choosing the byte-identical pace vector, because the
// transplant only seeds the memo and never changes what is searched.
//
// Q22 reads customer/orders while Q1 and the admitted Q6 read lineitem, so
// Q22's subplans are state-identical across the admission and their memo
// rows carry over; Q1's scan gains Q6's bit and is re-simulated.
func TestLiveAdmitWarmStart(t *testing.T) {
	req, queries, abs := liveRequest(t, []float64{0.5, 0.5, 0.5}, "Q1", "Q22", "Q6")

	live, err := NewLive(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	slot, rep, err := live.Admit(queries[2], abs[2])
	if err != nil {
		t.Fatal(err)
	}
	if slot != 2 {
		t.Errorf("admitted into slot %d, want 2", slot)
	}
	if rep.MemoSeeded < 1 {
		t.Errorf("no memo entries transplanted (seeded=%d); Q22's plan should be untouched by the admission", rep.MemoSeeded)
	}

	// The cold replan is the same search over the final query set on a fresh
	// model.
	cold, err := NewLive(Request{Queries: queries, Constraints: abs, MaxPace: req.MaxPace}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldSearch, err := pace.NewOptimizer(cost.NewModel(cold.Graph), abs, req.MaxPace)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coldSearch.Greedy(); err != nil {
		t.Fatal(err)
	}

	if rep.Sims >= cold.Model.Sims {
		t.Errorf("warm admission simulated %d subplans, cold replan %d — memo transplant saved nothing", rep.Sims, cold.Model.Sims)
	}
	if rep.Evals != coldSearch.Evals {
		t.Errorf("warm admission made %d cost evals, cold replan %d — the memo must not change the search path", rep.Evals, coldSearch.Evals)
	}
	if !reflect.DeepEqual(rep.Paces, cold.Paces) {
		t.Errorf("warm pace vector %v != cold %v — the transplant changed the search outcome", rep.Paces, cold.Paces)
	}
	if !reflect.DeepEqual(live.Paces, rep.Paces) {
		t.Errorf("installed paces %v != reported %v", live.Paces, rep.Paces)
	}
}

// TestLiveSlotReuse: a retired slot goes inactive without renumbering its
// neighbors and is reused by the next admission.
func TestLiveSlotReuse(t *testing.T) {
	req, queries, abs := liveRequest(t, []float64{1, 1, 1}, "Q1", "Q22", "Q6")
	live, err := NewLive(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Retire(0); err != nil {
		t.Fatal(err)
	}
	if live.Active(0) || !live.Active(1) {
		t.Fatalf("after Retire(0): Active(0)=%v Active(1)=%v", live.Active(0), live.Active(1))
	}
	if live.NumSlots() != 2 {
		t.Errorf("retirement renumbered slots: NumSlots=%d, want 2", live.NumSlots())
	}
	slot, rep, err := live.Admit(queries[2], abs[2])
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 {
		t.Errorf("admission took slot %d, want reuse of inactive slot 0", slot)
	}
	if rep.Slot != slot {
		t.Errorf("report slot %d != returned slot %d", rep.Slot, slot)
	}
	if live.NumSlots() != 2 {
		t.Errorf("slot reuse grew the plan: NumSlots=%d, want 2", live.NumSlots())
	}
}

// TestLiveRetireGuards: the last active query cannot be retired, inactive
// slots cannot be retired twice, and a failed admission leaves the previous
// revision installed.
func TestLiveRetireGuards(t *testing.T) {
	req, _, _ := liveRequest(t, []float64{1, 1, 1}, "Q1", "Q22", "Q6")
	live, err := NewLive(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Retire(5); err == nil {
		t.Error("retiring an out-of-range slot succeeded")
	}
	if _, err := live.Retire(1); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Retire(1); err == nil {
		t.Error("retiring an inactive slot succeeded")
	}
	if _, err := live.Retire(0); err == nil {
		t.Error("retiring the last active query succeeded")
	}

	before := live.Graph
	if _, _, err := live.Admit(plan.Query{}, math.Inf(1)); err == nil {
		t.Error("admitting a plan-less query succeeded")
	}
	if live.Graph != before {
		t.Error("failed admission replaced the installed revision")
	}
}

// TestLiveCloneIsolates: Admit and Retire on a clone leave the original live
// plan as it was — slots, revision and memo — so a caller that discards the
// clone (a failed graft) admits next exactly as if it had never tried.
func TestLiveCloneIsolates(t *testing.T) {
	req, queries, abs := liveRequest(t, []float64{0.5, 0.5, 0.5}, "Q1", "Q22", "Q6")
	live, err := NewLive(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	untouched, err := NewLive(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, m, paces, sims := live.Graph, live.Model, live.Paces, live.Model.Sims
	if _, _, err := live.Clone().Admit(queries[2], abs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Clone().Retire(0); err != nil {
		t.Fatal(err)
	}
	if live.Graph != g || live.Model != m || !reflect.DeepEqual(live.Paces, paces) || m.Sims != sims ||
		live.NumSlots() != 2 || !live.Active(0) || live.Query(0).Name != queries[0].Name || live.Active(2) {
		t.Fatalf("admitting into and retiring from clones changed the original")
	}
	_, got, err := live.Admit(queries[2], abs[2])
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := untouched.Admit(queries[2], abs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("admission after discarded clones: %+v, want %+v", got, want)
	}
}
