package ishare

import (
	"testing"

	"ishare/internal/exec"
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
