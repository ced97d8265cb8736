package ishare

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/pace"
	"ishare/internal/value"
)

// kindsEngine has a table of every column kind and a dimension table a
// join query reads.
func kindsEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable(TableSchema{
		Name: "ev",
		Columns: []Column{
			{Name: "id", Type: Int}, {Name: "amt", Type: Float}, {Name: "tag", Type: String, Distinct: 4},
			{Name: "ok", Type: Bool, Distinct: 2}, {Name: "day", Type: Date, Distinct: 5},
		},
		ExpectedRows: 50,
	})
	e.MustCreateTable(TableSchema{
		Name:         "dim",
		Columns:      []Column{{Name: "dtag", Type: String, Distinct: 4}, {Name: "w", Type: Int, Distinct: 3}},
		ExpectedRows: 4,
	})
	return e
}

var kindsQueries = map[string]string{
	"all":   "SELECT id, amt, tag, ok, day FROM ev WHERE amt > 0",
	"bytag": "SELECT tag, COUNT(*) AS n, SUM(amt) AS s, MIN(id) AS lo FROM ev GROUP BY tag",
	"join":  "SELECT w, ok, COUNT(*) AS n, MAX(amt) AS hi FROM ev, dim WHERE tag = dtag GROUP BY w, ok",
	"byday": "SELECT day, ok, COUNT(*) AS n FROM ev WHERE tag LIKE 'b%' GROUP BY day, ok",
}

// kindsWindow draws n rows per table in data, NULL one value in six, as
// engine rows and as the facade rows Step takes.
func kindsWindow(r *rand.Rand, n map[string]int) (exec.DeltaDataset, map[string][]Row) {
	tags := []string{"a", "b", "bc", "d"}
	draw := map[string]func() value.Row{
		"ev": func() value.Row {
			return value.Row{value.Int(r.Int63n(40)), value.Float(float64(r.Intn(80)-20) / 4), value.Str(tags[r.Intn(4)]),
				value.Bool(r.Intn(2) == 0), value.Date(int64(r.Intn(5)))}
		},
		"dim": func() value.Row { return value.Row{value.Str(tags[r.Intn(4)]), value.Int(int64(r.Intn(3)))} },
	}
	rows := exec.Dataset{}
	facade := map[string][]Row{}
	for name, k := range n {
		rows[name] = []value.Row{}
		facade[name] = []Row{}
		for range k {
			row := draw[name]()
			fr := make(Row, len(row))
			for j := range row {
				if r.Intn(6) == 0 {
					row[j] = value.Null
				}
				fr[j] = valueToIface(row[j])
			}
			rows[name] = append(rows[name], row)
			facade[name] = append(facade[name], fr)
		}
	}
	return exec.InsertStream(rows), facade
}

// TestSessionColumnsMatchRows feeds the same windows to a Session, whose
// arrivals are column segments, and to a runner over the same plan fed
// rows, grafting both through the same admissions and retirements. Every
// kind and NULLs in every column arrive; windows are empty, a table is
// missing from some, and the dimension table first arrives in window 2.
// Results (in order), each execution's Work and TotalWork must be equal.
func TestSessionColumnsMatchRows(t *testing.T) {
	e := kindsEngine(t)
	e.MustAddQuery("bytag", kindsQueries["bytag"], 0.5)
	e.MustAddQuery("all", kindsQueries["all"], 0.5)
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.NewDeltaRunner(s.live.Graph, exec.DeltaDataset{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	arrivals := []map[string]int{
		{"ev": 40}, {"ev": 0}, {"ev": 30, "dim": 6}, {"ev": 0, "dim": 0}, {},
		{"ev": 50, "dim": 2}, {"dim": 3}, {"ev": 70}, {"ev": 1, "dim": 1}, {"ev": 64},
	}
	churn := map[int]func() (*AdmitStats, error){
		2: func() (*AdmitStats, error) { return s.Admit("join", kindsQueries["join"], 0.5) },
		4: func() (*AdmitStats, error) { return s.Retire("all") },
		5: func() (*AdmitStats, error) { return s.Admit("byday", kindsQueries["byday"], 0.5) },
		7: func() (*AdmitStats, error) { return s.Admit("all", kindsQueries["all"], 0.5) },
		8: func() (*AdmitStats, error) { return s.Retire("bytag") },
	}
	for w, n := range arrivals {
		deltas, facade := kindsWindow(r, n)
		work, err := s.Step(facade)
		if err != nil {
			t.Fatal(err)
		}
		group, err := exec.Schedule(pace.Ones(len(s.live.Graph.Subplans)))
		if err != nil {
			t.Fatal(err)
		}
		ref.StartWindow(deltas)
		ref.ArriveWindow(1, 1)
		works, err := ref.RunGroup(group, 1, "exec", nil)
		if err != nil {
			t.Fatal(err)
		}
		var refWork int64
		for i, f := range group {
			refWork += works[i].Total()
			if got, want := s.runner.Execs[f.Subplan].FinalWork(), works[i]; got != want {
				t.Fatalf("window %d subplan %d: work %+v, rows %+v", w, f.Subplan, got, want)
			}
		}
		if work != refWork {
			t.Fatalf("window %d: Step work %d, rows %d", w, work, refWork)
		}
		if call := churn[w]; call != nil {
			st, err := call()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Graft(s.live.Graph, exec.GraftOptions{}); err != nil {
				t.Fatal(err)
			}
			if w == 2 && st.Replayed == 0 {
				t.Fatal("admitting the join replayed no window: the sealed column segments went unread")
			}
		}
		for slot := range s.live.NumSlots() {
			if got, want := s.runner.Results(slot), ref.Results(slot); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d slot %d: results %v, rows %v", w, slot, got, want)
			}
		}
		if got, want := s.TotalWork(), ref.ReportNow().TotalWork; got != want {
			t.Fatalf("window %d: TotalWork %d, rows %d", w, got, want)
		}
	}
}

// TestSessionJoinKeepsRowsPastTheirWindow: a join's build side fed from
// column segments keeps its rows after later reads rewrite them: in a step,
// dim's window-0 rows are read from its log's open-window slab, which the
// next window's dim rows rewrite; in a graft's replay, they are read from
// sealed columns into a view scratch, which the next chunk rewrites. ev
// rows of later windows join window 0's dim rows, so a join that kept the
// rows it was handed would lose those matches.
func TestSessionJoinKeepsRowsPastTheirWindow(t *testing.T) {
	e := kindsEngine(t)
	e.MustAddQuery("join", "SELECT dtag, w, COUNT(*) AS n FROM ev, dim WHERE tag = dtag GROUP BY dtag, w", 0.5)
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := func(tag string) Row { return Row{1, 1.0, tag, true, 1} }
	windows := []map[string][]Row{
		{"dim": {{"a", 1}, {"b", 2}}, "ev": {ev("none"), ev("none")}},
		{"dim": {{"x", 8}, {"y", 9}}, "ev": {ev("a")}},
		{"dim": {{"z", 7}, {"q", 6}}, "ev": {ev("b"), ev("a")}},
		{"ev": {ev("b")}},
	}
	want := [][]string{{}, {"a|1|1"}, {"a|1|2", "b|2|1"}, {"a|1|2", "b|2|2"}}
	check := func(when string, w int, names ...string) {
		t.Helper()
		for _, name := range names {
			rows, err := s.Results(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "join2" {
				rows = swapFirstTwo(rows)
			}
			if got := renderRows(rows); !reflect.DeepEqual(got, want[w]) && len(got)+len(want[w]) > 0 {
				t.Errorf("%s window %d: %s = %v, want %v", when, w, name, got, want[w])
			}
		}
	}
	for w, data := range windows {
		if _, err := s.Step(data); err != nil {
			t.Fatal(err)
		}
		check("after the step of", w, "join")
		if w == 2 {
			// Every subplan is rebuilt and replays windows 0 and 1 from
			// sealed columns.
			if _, err := s.Admit("join2", "SELECT w, dtag, COUNT(*) AS n FROM ev, dim WHERE tag = dtag GROUP BY w, dtag", 0.5); err != nil {
				t.Fatal(err)
			}
			check("after the admission in", w, "join", "join2")
		}
	}
	check("at the end of", len(windows)-1, "join2")
}

func swapFirstTwo(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = append(Row{r[1], r[0]}, r[2:]...)
	}
	return out
}

// clickSchema is a click stream's table: the shape of the repository
// benchmark's clicks, 56 bytes of column payload per row.
func clickEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable(TableSchema{
		Name: "clicks",
		Columns: []Column{
			{Name: "user_id", Type: Int, Distinct: 20000}, {Name: "page", Type: String, Distinct: 50},
			{Name: "country", Type: String, Distinct: 10}, {Name: "ms", Type: Float, Min: 1, Max: 5000},
			{Name: "purchase", Type: Float},
		},
		ExpectedRows: 5000,
	})
	e.MustCreateTable(TableSchema{
		Name:         "payments",
		Columns:      []Column{{Name: "payer", Type: Int}, {Name: "method", Type: String, Distinct: 4}, {Name: "amount", Type: Float}},
		ExpectedRows: 1000,
	})
	return e
}

var (
	clickPages = func() []string {
		p := make([]string, 50)
		for i := range p {
			p[i] = fmt.Sprintf("/page/%02d", i)
		}
		return p
	}()
	clickCountries = []string{"US", "DE", "JP", "BR", "IN", "FR", "GB", "CA", "AU", "NL"}
	clickMethods   = []string{"card", "wire", "wallet", "invoice"}
)

// clickWindow is n clicks and n/5 payments; strings come from fixed pools,
// as a real stream's dictionary-like columns do.
func clickWindow(r *rand.Rand, n int) map[string][]Row {
	clicks := make([]Row, n)
	for i := range clicks {
		clicks[i] = Row{r.Intn(20000), clickPages[r.Intn(50)], clickCountries[r.Intn(10)], float64(1 + r.Intn(5000)), 0.0}
	}
	payments := make([]Row, n/5)
	for i := range payments {
		payments[i] = Row{r.Intn(20000), clickMethods[r.Intn(4)], float64(r.Intn(50000)) / 100}
	}
	return map[string][]Row{"clicks": clicks, "payments": payments}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionBytesPerClick: a session's history costs its column payload,
// not a tuple and a value per column. On the click schema the live heap
// after a GC grows by at most 80 bytes per arrived click (56 of them the
// columns, most of the rest the open window's slab), where a row history
// costs 240.
func TestSessionBytesPerClick(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 100 000 clicks")
	}
	e := clickEngine(t)
	e.MustAddQuery("views", "SELECT country, COUNT(*) AS n FROM clicks GROUP BY country", 0.5)
	s, err := e.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	const windows, perWindow = 40, 2500
	before := liveHeap()
	for range windows {
		data := clickWindow(r, perWindow)
		delete(data, "payments")
		if _, err := s.Step(data); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	perClick := float64(after-before) / (windows * perWindow)
	t.Logf("%.1f live bytes per arrived click", perClick)
	if perClick > 80 {
		t.Errorf("%.1f live bytes per arrived click, want at most 80", perClick)
	}
	runtime.KeepAlive(s)
}

// TestStepAllocsFlatInRows: Step allocates per window and per table, not
// per row — the same count at 1 000 and at 10 000 rows per table. The
// collector stays off while counting, as in TestConvertDataAllocsPerTable,
// and each size keeps its least count of three: a goroutine another test
// left running can only add allocations to the process-wide count.
func TestStepAllocsFlatInRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		least := math.Inf(1)
		for range 3 {
			e := clickEngine(t)
			e.MustAddQuery("views", "SELECT country, COUNT(*) AS n FROM clicks GROUP BY country", 0.5)
			e.MustAddQuery("paid", "SELECT method, SUM(amount) AS s FROM payments GROUP BY method", 0.5)
			s, err := e.StartSession(Options{})
			if err != nil {
				t.Fatal(err)
			}
			data := clickWindow(rand.New(rand.NewSource(1)), n)
			least = min(least, testing.AllocsPerRun(10, func() {
				if _, err := s.Step(data); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if a, b := allocs(1000), allocs(10000); a != b {
		t.Errorf("Step: %v allocations at 1 000 rows per table, %v at 10 000", a, b)
	}
}
