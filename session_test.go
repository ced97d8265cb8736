package ishare

import (
	"errors"
	"reflect"
	"runtime/debug"
	"slices"
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
// hosting the session — and every later call to fail with an error wrapping
// the runner's first failure.
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
	first := s.runner.Err()
	if first == nil || !errors.Is(err, first) {
		t.Fatalf("runner keeps %v, want the failure Step returned (%v)", first, err)
	}
	if s.Windows() != 1 {
		t.Errorf("failed Step counted as a window: Windows() = %d, want 1", s.Windows())
	}
	// The failure is sticky: with the fault cleared, every later call
	// returns an error wrapping the first and runs nothing.
	exec.DebugSlowSubplan = nil
	work := s.TotalWork()
	if _, err := s.Step(ordersData()); !errors.Is(err, first) {
		t.Errorf("Step after failure: %v, want an error wrapping %q", err, first)
	}
	if _, err := s.Admit("count", "SELECT COUNT(*) FROM orders", 1.0); !errors.Is(err, first) {
		t.Errorf("Admit after failure: %v, want an error wrapping %q", err, first)
	}
	if _, err := s.Retire("by_customer"); !errors.Is(err, first) {
		t.Errorf("Retire after failure: %v, want an error wrapping %q", err, first)
	}
	if _, err := s.Results("by_customer"); !errors.Is(err, first) {
		t.Errorf("Results after failure: %v, want an error wrapping %q", err, first)
	}
	if s.Windows() != 1 || s.TotalWork() != work || s.Slot("count") >= 0 || s.Slot("by_customer") < 0 {
		t.Errorf("calls after failure ran: Windows() = %d, TotalWork %d → %d, slots count %d, by_customer %d",
			s.Windows(), work, s.TotalWork(), s.Slot("count"), s.Slot("by_customer"))
	}
}

// TestResultOrderIsStable: a query without ORDER BY returns its rows in the
// order each first arrived, so two identically driven sessions agree row for
// row, and so do two calls on one session.
func TestResultOrderIsStable(t *testing.T) {
	queries := map[string]string{
		"orders":      "SELECT o_id, o_customer FROM orders WHERE o_amount > 1",
		"by_customer": "SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer",
	}
	start := func() *Session {
		e := ordersEngine(t)
		for name, sql := range queries {
			e.MustAddQuery(name, sql, 1.0)
		}
		s, err := e.StartSession(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := s.Step(ordersData()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for range 20 {
		a, b := start(), start()
		for name := range queries {
			first, err := a.Results(name)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := a.Results(name)
			other, _ := b.Results(name)
			if len(first) < 3 {
				t.Fatalf("%s: %d rows, too few to show an order", name, len(first))
			}
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: a second call returned %v, the first %v", name, again, first)
			}
			if !reflect.DeepEqual(other, first) {
				t.Fatalf("%s: an identical session returned %v, the first %v", name, other, first)
			}
		}
	}
}

// TestSessionAdmitFailsOnReplayPanic: a panic in the catch-up replay of an
// Admit or a Retire returns from the call as an error naming the subplan,
// instead of escaping the facade, and changes nothing. With the fault
// cleared, the session's later windows, results, work, drift and next
// admission equal those of a session that never made the call.
func TestSessionAdmitFailsOnReplayPanic(t *testing.T) {
	const regions = "SELECT c_region, COUNT(*) FROM customers GROUP BY c_region"
	for _, tc := range []struct {
		name string
		call func(*Session) (*AdmitStats, error)
	}{
		// by_customer joins by_region's orders scan: rebuilt subplans
		// replay window 0.
		{"Admit", func(s *Session) (*AdmitStats, error) {
			return s.Admit("by_customer", "SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0)
		}},
		// regions holds the customers scan apart from by_region's join;
		// retiring it rebuilds that join's subplan.
		{"Retire", func(s *Session) (*AdmitStats, error) { return s.Retire("regions") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := func() *Session {
				e := ordersEngine(t)
				if err := e.AddQuery("by_region",
					`SELECT c_region, SUM(o_amount) AS total FROM orders, customers
					 WHERE o_customer = c_name GROUP BY c_region`, 1.0); err != nil {
					t.Fatal(err)
				}
				if err := e.AddQuery("regions", regions, 1.0); err != nil {
					t.Fatal(err)
				}
				s, err := e.StartSession(Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Step(ordersData()); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s, clean := start(), start()
			names, paces := s.QueryNames(), s.Paces()
			exec.DebugSlowSubplan = func(int) int64 { panic("injected replay failure") }
			defer func() { exec.DebugSlowSubplan = nil }()
			_, err := tc.call(s)
			exec.DebugSlowSubplan = nil
			if err == nil || !strings.Contains(err.Error(), "panicked: injected replay failure") ||
				!strings.HasPrefix(err.Error(), "ishare: graft: exec: graft: replay of window 0: exec: subplan ") {
				t.Fatalf("%s error %v, want the replay panic naming its subplan", tc.name, err)
			}
			if !slices.Equal(s.QueryNames(), names) || !slices.Equal(s.Paces(), paces) || s.runner.Err() != nil {
				t.Fatalf("failed %s changed the session: queries %v → %v, paces %v → %v, runner error %v",
					tc.name, names, s.QueryNames(), paces, s.Paces(), s.runner.Err())
			}
			same := func(when string) {
				t.Helper()
				if got, want := s.TotalWork(), clean.TotalWork(); got != want {
					t.Errorf("%s: TotalWork %d, want %d", when, got, want)
				}
				if got, want := s.Drift(), clean.Drift(); !slices.Equal(got, want) {
					t.Errorf("%s: Drift %v, want %v", when, got, want)
				}
				for _, name := range clean.QueryNames() {
					got, err := s.Results(name)
					if err != nil {
						t.Fatalf("%s: Results(%s): %v", when, name, err)
					}
					want, err := clean.Results(name)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s results %v, want %v in that order", when, name, got, want)
					}
				}
			}
			same("after the failed call")
			for w := 1; w <= 2; w++ {
				got, err := s.Step(ordersData())
				if err != nil {
					t.Fatalf("Step %d after the failed call: %v", w, err)
				}
				want, err := clean.Step(ordersData())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("Step %d work %d, want %d", w, got, want)
				}
			}
			same("after two more windows")
			got, err := s.Admit("count", "SELECT COUNT(*) FROM orders", 0.5)
			if err != nil {
				t.Fatalf("Admit after the failed call: %v", err)
			}
			want, err := clean.Admit("count", "SELECT COUNT(*) FROM orders", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("next Admit: %+v, want %+v", got, want)
			}
			for _, st := range []*Session{s, clean} {
				if _, err := st.Step(ordersData()); err != nil {
					t.Fatal(err)
				}
			}
			same("after the next Admit")
		})
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

// sessionQueries are the two queries of the session tests below: one over
// orders alone, one joining customers.
var sessionQueries = map[string]string{
	"by_customer": "SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer",
	"by_region": `SELECT c_region, SUM(o_amount) AS total FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`,
}

// sessionWindow is window w's arrivals: ordersData with fresh order ids and
// amounts.
func sessionWindow(w int) map[string][]Row {
	data := ordersData()
	for i, row := range data["orders"] {
		data["orders"][i] = Row{10*w + i, row[1], float64(w+1) * row[2].(float64), row[3]}
	}
	return data
}

// steppedSession starts a session over the named queries and steps it
// through windows 0 … windows-1.
func steppedSession(t *testing.T, windows int, names ...string) *Session {
	t.Helper()
	e := ordersEngine(t)
	for _, name := range names {
		e.MustAddQuery(name, sessionQueries[name], 0.5)
	}
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for w := range windows {
		if _, err := s.Step(sessionWindow(w)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSessionTotalWorkIsTheCurrentPlans pins what TotalWork means: the
// modeled work a from-scratch run of the current plan over every stepped
// window would report. After an Admit, and again after a Retire, it equals
// a fresh session's over the live queries stepped through the same windows;
// the work of executors a graft dropped is not in it.
func TestSessionTotalWorkIsTheCurrentPlans(t *testing.T) {
	s := steppedSession(t, 2, "by_customer")
	if _, err := s.Admit("by_region", sessionQueries["by_region"], 0.5); err != nil {
		t.Fatal(err)
	}
	if got, want := s.TotalWork(), steppedSession(t, 2, "by_customer", "by_region").TotalWork(); got != want {
		t.Errorf("after Admit: TotalWork = %d, a fresh session's = %d", got, want)
	}
	if _, err := s.Step(sessionWindow(2)); err != nil {
		t.Fatal(err)
	}
	before := s.TotalWork()
	if _, err := s.Retire("by_region"); err != nil {
		t.Fatal(err)
	}
	got, want := s.TotalWork(), steppedSession(t, 3, "by_customer").TotalWork()
	if got != want {
		t.Errorf("after Retire: TotalWork = %d, a fresh session's = %d", got, want)
	}
	if got >= before {
		t.Errorf("TotalWork did not fall with the retired query's executors: %d, before %d", got, before)
	}
}

// TestSessionKeepsNoMirror: no caller reaches a session's runner, so it
// keeps no Data mirror through Step, Admit and Retire; the table logs are
// the one record of arrivals.
func TestSessionKeepsNoMirror(t *testing.T) {
	s := steppedSession(t, 0, "by_customer")
	check := func(when string) {
		t.Helper()
		if s.runner.Data != nil {
			t.Errorf("after %s: the runner mirrors %d tables", when, len(s.runner.Data))
		}
	}
	check("StartSession")
	for w, call := range []func() error{
		func() error { _, err := s.Admit("by_region", sessionQueries["by_region"], 0.5); return err },
		func() error { _, err := s.Retire("by_customer"); return err },
	} {
		if _, err := s.Step(sessionWindow(w)); err != nil {
			t.Fatal(err)
		}
		check("Step")
		if err := call(); err != nil {
			t.Fatal(err)
		}
		check("a graft")
	}
	got, err := s.Results("by_region")
	if err != nil {
		t.Fatal(err)
	}
	want, err := steppedSession(t, 2, "by_region").Results("by_region")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(renderRows(got), renderRows(want)) {
		t.Errorf("by_region = %v, want a fresh session's %v", got, want)
	}
}

// TestConvertDataAllocsPerTable: the facade converter allocates per table,
// not per row — for the column segments Step stages and for the rows Run
// reads off them — and carves every row with cap == len, so an append to
// one row cannot write into the next.
func TestConvertDataAllocsPerTable(t *testing.T) {
	e := ordersEngine(t)
	data := func(n int) map[string][]Row {
		d := map[string][]Row{"orders": make([]Row, n), "customers": make([]Row, n)}
		for i := range n {
			d["orders"][i] = Row{i, "acme", float64(i), i%5 + 1}
			d["customers"][i] = Row{"acme", nil}
		}
		return d
	}
	small, large := data(1000), data(10000)
	// The collector stays off while counting: the runtime allocates a few
	// objects of its own per GC cycle (the unique package's cleanup), and
	// larger inputs run more cycles.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(d map[string][]Row, sink func(map[string][]Row) error) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := sink(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, sink := range map[string]func(map[string][]Row) error{
		"columns": func(d map[string][]Row) error {
			_, err := convertData(e.cat, d)
			return err
		},
		"rows": func(d map[string][]Row) error {
			cols, err := convertData(e.cat, d)
			for _, c := range cols {
				c.Rows()
			}
			return err
		},
	} {
		if a, b := allocs(small, sink), allocs(large, sink); a != b {
			t.Errorf("%s: %v allocations at 1 000 rows per table, %v at 10 000", name, a, b)
		}
	}
	conv, err := convertData(e.cat, small)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range conv {
		for i, row := range c.Rows() {
			if cap(row) != len(row) {
				t.Fatalf("%s row %d: cap %d, len %d", name, i, cap(row), len(row))
			}
		}
	}
}
