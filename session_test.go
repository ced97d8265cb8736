package ishare

import (
	"strings"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
)

// TestSessionProfileAndDrift exercises the facade's observability surface:
// a stepped session records one profile sample per fired subplan per
// window, baselined against the cost model's batch-pace prediction, and
// admission re-baselines the profiler for the new plan revision.
func TestSessionProfileAndDrift(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("by_customer",
		"SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		if _, err := s.Step(ordersData()); err != nil {
			t.Fatal(err)
		}
	}

	samples := s.Profile()
	if len(samples) == 0 {
		t.Fatal("no profile samples after two windows")
	}
	nsub := len(s.Paces())
	seenW1 := false
	for _, sm := range samples {
		if sm.Window < 0 || sm.Window > 1 {
			t.Errorf("sample window %d outside stepped range", sm.Window)
		}
		if sm.Subplan < 0 || sm.Subplan >= nsub {
			t.Errorf("sample subplan %d out of range", sm.Subplan)
		}
		if sm.Work <= 0 || sm.Batches <= 0 {
			t.Errorf("sample %+v records no work", sm)
		}
		if sm.Modeled <= 0 || sm.Drift <= 0 {
			t.Errorf("sample %+v missing the cost-model baseline", sm)
		}
		if sm.Window == 1 {
			seenW1 = true
		}
	}
	if !seenW1 {
		t.Error("no samples from the second window")
	}
	if d := s.Drift(); len(d) != nsub {
		t.Errorf("Drift() has %d entries for %d subplans", len(d), nsub)
	}

	// Admission re-baselines: the profiler tracks the new plan's size and
	// keeps recording.
	if _, err := s.Admit("by_region",
		`SELECT c_region, SUM(o_amount) AS total FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`, 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(ordersData()); err != nil {
		t.Fatal(err)
	}
	if d := s.Drift(); len(d) != len(s.Paces()) {
		t.Errorf("post-admit Drift() has %d entries for %d subplans", len(d), len(s.Paces()))
	}
	grew := false
	for _, sm := range s.Profile() {
		if sm.Window == 2 {
			grew = true
			if sm.Work <= 0 {
				t.Errorf("post-admit sample %+v records no work", sm)
			}
		}
	}
	if !grew {
		t.Error("no samples recorded after admission")
	}
}

// TestSessionStepSurvivesOperatorPanic injects a panic into one subplan's
// executions and requires Step to hand it back as an error naming the window
// and the subplan — a failing operator must not take down the process
// hosting the session — and every later call to fail with that first error.
func TestSessionStepSurvivesOperatorPanic(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("by_customer",
		"SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(ordersData()); err != nil {
		t.Fatal(err)
	}
	exec.DebugSlowSubplan = func(id int) int64 {
		if id == 0 {
			panic("injected operator failure")
		}
		return 0
	}
	defer func() { exec.DebugSlowSubplan = nil }()
	_, err = s.Step(ordersData())
	const want = "ishare: window 1: exec: subplan 0 panicked: injected operator failure"
	if err == nil || err.Error() != want {
		t.Fatalf("Step error %v, want %q", err, want)
	}
	if s.Windows() != 1 {
		t.Errorf("failed Step counted as a window: Windows() = %d, want 1", s.Windows())
	}
	// The failure is sticky: with the fault cleared, every later call
	// returns the first error and runs nothing.
	exec.DebugSlowSubplan = nil
	work := s.TotalWork()
	if _, err := s.Step(ordersData()); err == nil || err.Error() != want {
		t.Errorf("Step after failure: %v, want %q", err, want)
	}
	if _, err := s.Admit("count", "SELECT COUNT(*) FROM orders", 1.0); err == nil || err.Error() != want {
		t.Errorf("Admit after failure: %v, want %q", err, want)
	}
	if _, err := s.Retire("by_customer"); err == nil || err.Error() != want {
		t.Errorf("Retire after failure: %v, want %q", err, want)
	}
	if _, err := s.Results("by_customer"); err == nil || err.Error() != want {
		t.Errorf("Results after failure: %v, want %q", err, want)
	}
	if s.Windows() != 1 || s.TotalWork() != work || s.Slot("count") >= 0 || s.Slot("by_customer") < 0 {
		t.Errorf("calls after failure ran: Windows() = %d, TotalWork %d → %d, slots count %d, by_customer %d",
			s.Windows(), work, s.TotalWork(), s.Slot("count"), s.Slot("by_customer"))
	}
}

// TestSessionAdmitFailsOnReplayPanic: a panic in an admission's catch-up
// replay returns from Admit as an error naming the subplan instead of
// escaping the facade, and fails the session for good: the runner keeps its
// old executors, but the live plan has already moved to the new revision.
func TestSessionAdmitFailsOnReplayPanic(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("by_region",
		`SELECT c_region, SUM(o_amount) AS total FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`, 1.0); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(ordersData()); err != nil {
		t.Fatal(err)
	}
	exec.DebugSlowSubplan = func(int) int64 { panic("injected replay failure") }
	defer func() { exec.DebugSlowSubplan = nil }()
	_, err = s.Admit("by_customer", "SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0)
	if err == nil || !strings.Contains(err.Error(), "panicked: injected replay failure") ||
		!strings.HasPrefix(err.Error(), "ishare: graft: exec: graft: replay of window 0: exec: subplan ") {
		t.Fatalf("Admit error %v, want the replay panic naming its subplan", err)
	}
	exec.DebugSlowSubplan = nil
	first := err.Error()
	if _, err := s.Step(ordersData()); err == nil || err.Error() != first {
		t.Errorf("Step after failed graft: %v, want %q", err, first)
	}
	if _, err := s.Admit("count", "SELECT COUNT(*) FROM orders", 1.0); err == nil || err.Error() != first {
		t.Errorf("Admit after failed graft: %v, want %q", err, first)
	}
	if _, err := s.Retire("by_region"); err == nil || err.Error() != first {
		t.Errorf("Retire after failed graft: %v, want %q", err, first)
	}
	if _, err := s.Results("by_region"); err == nil || err.Error() != first {
		t.Errorf("Results after failed graft: %v, want %q", err, first)
	}
	if s.Windows() != 1 || s.Slot("by_customer") >= 0 {
		t.Errorf("calls after failed graft ran: Windows() = %d, by_customer slot %d", s.Windows(), s.Slot("by_customer"))
	}
}

// TestSessionDriftFollowsGraft: a graft renumbers subplans, and each
// subplan's drift EWMA follows its executor — an adopted subplan keeps its
// EWMA under its new id, a rebuilt one starts unobserved.
func TestSessionDriftFollowsGraft(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("by_customer",
		"SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery("by_region",
		`SELECT c_region, SUM(o_amount) AS total FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`, 1.0); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ name, sql string }{
		{"count", "SELECT COUNT(*) FROM orders"},
		{"by_priority", "SELECT o_priority, COUNT(*) FROM orders GROUP BY o_priority"},
	} {
		if _, err := s.Step(ordersData()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Admit(q.name, q.sql, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Step(ordersData()); err != nil {
		t.Fatal(err)
	}
	// A query over customers splits the customers scan out of by_region's
	// subplan: the scan is new and by_region's subplan is rebuilt, and the
	// subplans numbered after them are adopted under higher ids.
	before, oldG := s.Drift(), s.runner.Graph
	st, err := s.Admit("regions", "SELECT c_region, COUNT(*) FROM customers GROUP BY c_region", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	after, newG := s.Drift(), s.runner.Graph
	serving := func(g *mqo.Graph, name string, kind mqo.Kind) int {
		for _, sp := range g.Subplans {
			if sp.Queries == mqo.Bit(s.Slot(name)) && sp.Root.Kind == kind {
				return sp.ID
			}
		}
		t.Fatalf("no %v subplan serves only %s", kind, name)
		return -1
	}
	oldID, newID := serving(oldG, "by_priority", mqo.KindProject), serving(newG, "by_priority", mqo.KindProject)
	if oldID == newID {
		t.Fatalf("by_priority's subplan kept id %d: the graft renumbers nothing", oldID)
	}
	if before[oldID] == 0 || after[newID] != before[oldID] {
		t.Errorf("by_priority's subplan %d → %d: drift %v → %v, want it carried over", oldID, newID, before[oldID], after[newID])
	}
	if id := serving(newG, "by_region", mqo.KindProject); after[id] != 0 {
		t.Errorf("rebuilt by_region subplan %d starts at drift %v, want unobserved", id, after[id])
	}
	carried := 0
	for _, d := range after {
		if d != 0 {
			carried++
		}
	}
	if carried != st.MatchedSubplans || st.FreshSubplans == 0 {
		t.Errorf("%d subplans carry a drift after the graft, want the %d adopted (%d rebuilt)", carried, st.MatchedSubplans, st.FreshSubplans)
	}
}
