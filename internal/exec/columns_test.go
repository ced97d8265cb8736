package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/buffer"
	"ishare/internal/value"
)

// columnWindow is rows as the column segment a Session stages.
func columnWindow(rows []value.Row, kinds []value.Kind) *buffer.Columns {
	c := buffer.NewColumns(kinds, len(rows))
	for i, row := range rows {
		for j, v := range row {
			c.Set(i, j, v)
		}
	}
	return c
}

// TestColumnWindowsMatchRowWindows drives one runner with row windows
// (StartWindow) and one with the same windows as column segments
// (StartColumnWindow): each window arrives in thirds with every subplan
// fired at each (partial reveals of the open window's slab) — but for one
// window, whose readers finish it only after the next window arrived — and every
// third window both runners graft onto their own graph with transplant off,
// so every subplan replays the sealed column segments. Results (in order),
// each execution's Work and the report must be equal, at chunk sizes 1, 7
// and the default and with sharing off.
func TestColumnWindowsMatchRowWindows(t *testing.T) {
	for _, o := range []Options{{}, {Batch: 1}, {Batch: 7}, {NoShare: true}, {Batch: -1}} {
		t.Run(fmt.Sprintf("%+v", o), func(t *testing.T) {
			harnessOpts = o
			defer func() { harnessOpts = Options{} }()
			testColumnWindowsMatchRowWindows(t)
		})
	}
}

func testColumnWindowsMatchRowWindows(t *testing.T) {
	h := newHarness(t, map[string]string{
		"join":  "SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem WHERE p_partkey = l_partkey AND p_size > 2 GROUP BY p_brand",
		"rows":  "SELECT p_brand, l_quantity, p_size FROM part, lineitem WHERE p_partkey = l_partkey AND l_quantity < 30",
		"small": "SELECT l_partkey, MAX(l_quantity) AS m FROM lineitem WHERE l_quantity < 20 GROUP BY l_partkey",
		"brand": "SELECT p_brand, COUNT(*) AS n FROM part WHERE p_brand LIKE 'b%' GROUP BY p_brand",
	}, []string{"join", "rows", "small", "brand"})
	rowR, err := New(h.graph, DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	colR, err := New(h.graph, DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	colR.Data = nil
	kinds := map[string][]value.Kind{
		"lineitem": {value.KindInt, value.KindFloat},
		"part":     {value.KindInt, value.KindString, value.KindInt},
	}
	r := rand.New(rand.NewSource(3))
	brands := []string{"a", "b", "bb", "c"}
	draw := func(table string, n int) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			if table == "part" {
				rows[i] = value.Row{value.Int(r.Int63n(30)), value.Str(brands[r.Intn(4)]), value.Int(r.Int63n(6))}
			} else {
				rows[i] = value.Row{value.Int(r.Int63n(30)), value.Float(float64(r.Intn(160)) / 4)}
			}
			for j := range rows[i] {
				if r.Intn(8) == 0 {
					rows[i][j] = value.Null
				}
			}
		}
		return rows
	}
	for w := range 9 {
		rows, cols := DeltaDataset{}, map[string]*buffer.Columns{}
		for _, table := range []string{"part", "lineitem"} {
			if n := r.Intn(3) * (1 + r.Intn(90)); n > 0 || r.Intn(2) == 0 {
				d := draw(table, n)
				rows[table] = InsertStream(Dataset{table: d})[table]
				cols[table] = columnWindow(d, kinds[table])
			}
		}
		rowR.StartWindow(rows)
		colR.StartColumnWindow(cols)
		for j := 1; j <= 3; j++ {
			rowR.ArriveWindow(j, 3)
			colR.ArriveWindow(j, 3)
			if w == 4 && j > 1 {
				// Readers stop inside the open window and resume in the
				// next one, after its rows have replaced this one's.
				continue
			}
			for id := range h.graph.Subplans {
				if got, want := colR.RunSubplan(id), rowR.RunSubplan(id); got != want {
					t.Fatalf("window %d third %d subplan %d: work %+v, rows %+v", w, j, id, got, want)
				}
			}
		}
		if w%3 == 2 {
			for _, run := range []*Runner{rowR, colR} {
				if _, err := run.Graft(h.graph, GraftOptions{DisableTransplant: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := range h.queries {
			if got, want := colR.Results(q), rowR.Results(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d query %d: results %v, rows %v", w, q, got, want)
			}
		}
		if got, want := colR.ReportNow(), rowR.ReportNow(); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: report %+v, rows %+v", w, got, want)
		}
	}
}

// TestColumnWindowsInParallelWaves runs column windows through RunGroup on
// four workers, so scans fill truth columns over sealed column segments
// and view readers gather from them concurrently (run it with -race), and
// requires the results and report of one worker fed rows.
func TestColumnWindowsInParallelWaves(t *testing.T) {
	h := newHarness(t, map[string]string{
		"join":  "SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem WHERE p_partkey = l_partkey AND p_size > 2 GROUP BY p_brand",
		"small": "SELECT l_partkey, MAX(l_quantity) AS m FROM lineitem WHERE l_quantity < 20 GROUP BY l_partkey",
		"big":   "SELECT l_partkey, COUNT(*) AS n FROM lineitem WHERE l_quantity > 10 GROUP BY l_partkey",
		"brand": "SELECT p_brand, COUNT(*) AS n FROM part WHERE p_size < 4 GROUP BY p_brand",
	}, []string{"join", "small", "big", "brand"})
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 1 + i%3
	}
	fs, err := Schedule(paces)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]value.Kind{
		"lineitem": {value.KindInt, value.KindFloat},
		"part":     {value.KindInt, value.KindString, value.KindInt},
	}
	r := rand.New(rand.NewSource(5))
	var rows []DeltaDataset
	var cols []map[string]*buffer.Columns
	for range 7 {
		part := partRows([3]interface{}{r.Intn(20), []string{"a", "b"}[r.Intn(2)], r.Intn(6)}, [3]interface{}{r.Intn(20), "c", r.Intn(6)})
		line := make([]value.Row, 50+r.Intn(50))
		for i := range line {
			line[i] = value.Row{value.Int(r.Int63n(20)), value.Float(float64(r.Intn(120)) / 4)}
		}
		rows = append(rows, InsertStream(Dataset{"part": part, "lineitem": line}))
		cols = append(cols, map[string]*buffer.Columns{"part": columnWindow(part, kinds["part"]), "lineitem": columnWindow(line, kinds["lineitem"])})
	}
	run := func(workers int, start func(*Runner, int)) *Runner {
		rn, err := New(h.graph, DeltaDataset{}, h.opts)
		if err != nil {
			t.Fatal(err)
		}
		rn.Data = nil
		for w := range rows {
			start(rn, w)
			for lo, hi := 0, 0; lo < len(fs); lo = hi {
				hi = GroupEnd(fs, lo)
				rn.ArriveWindow(fs[lo].Index, fs[lo].Pace)
				if _, err := rn.RunGroup(fs[lo:hi], workers, "exec", nil); err != nil {
					t.Fatal(err)
				}
			}
			if w%3 == 1 {
				if _, err := rn.Graft(h.graph, GraftOptions{DisableTransplant: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rn
	}
	want := run(1, func(rn *Runner, w int) { rn.StartWindow(rows[w]) })
	got := run(4, func(rn *Runner, w int) { rn.StartColumnWindow(cols[w]) })
	for q := range h.queries {
		if g, w := got.Results(q), want.Results(q); !reflect.DeepEqual(g, w) {
			t.Errorf("query %d: results %v, rows %v", q, g, w)
		}
	}
	if g, w := got.ReportNow(), want.ReportNow(); !reflect.DeepEqual(g, w) {
		t.Errorf("report %+v, rows %+v", g, w)
	}
}

// TestColumnWindowMirrorsCopies: a runner that keeps its Data mirror
// mirrors a column window's rows as rows of their own, which the next
// window's reuse of the table log's slab leaves intact.
func TestColumnWindowMirrorsCopies(t *testing.T) {
	h := newHarness(t, map[string]string{"q": "SELECT l_partkey FROM lineitem"}, []string{"q"})
	r, err := New(h.graph, DeltaDataset{}, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []value.Kind{value.KindInt, value.KindFloat}
	w0, w1 := lineitemRows([2]int64{1, 10}, [2]int64{2, 20}), lineitemRows([2]int64{3, 30}, [2]int64{4, 40})
	r.StartColumnWindow(map[string]*buffer.Columns{"lineitem": columnWindow(w0, kinds)})
	r.StartColumnWindow(map[string]*buffer.Columns{"lineitem": columnWindow(w1, kinds)})
	var got []value.Row
	for _, tu := range r.Data["lineitem"] {
		got = append(got, tu.Row)
	}
	if want := append(w0, w1...); !reflect.DeepEqual(got, want) {
		t.Errorf("mirror = %v, want %v", got, want)
	}
}
