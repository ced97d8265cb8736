package ishare

import (
	"fmt"
	"reflect"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/oracle"
	"ishare/internal/value"
)

// FuzzSessionVsOracle drives generated workloads through the public facade
// — Engine, StartSession, Step, Admit and Retire — and after every window
// compares each active query's Results with the naive evaluator over the
// rows stepped so far. Step stages each window as column segments, so
// every kind, NULLs, joins, graft replay over sealed columns and empty
// windows run on the column path. Each table's stream is split into the
// workload's churn windows (three without a churn plan), insertions only:
// facade arrivals are insertions.
func FuzzSessionVsOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 13, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		opts := oracle.DefaultOptions()
		opts.Churn = true
		w := oracle.Generate(seed, opts)
		queries, err := w.Bind()
		if err != nil {
			t.Fatal(err)
		}
		windows, admit, retire := 3, make([]int, len(w.SQL)), make([]int, len(w.SQL))
		for q := range retire {
			retire[q] = -1
		}
		if cp := w.Churn; cp != nil {
			windows, admit, retire = cp.Windows, cp.Admit, cp.Retire
		}
		e := NewEngine()
		facadeTypes := map[value.Kind]Type{value.KindInt: Int, value.KindFloat: Float, value.KindString: String, value.KindBool: Bool, value.KindDate: Date}
		inserts := map[string][]value.Row{}
		for _, td := range w.Tables {
			var cols []Column
			for _, c := range td.Cols {
				cols = append(cols, Column{Name: c.Name, Type: facadeTypes[c.Type]})
			}
			for _, tu := range w.Streams[td.Name] {
				if tu.Sign == delta.Insert {
					inserts[td.Name] = append(inserts[td.Name], tu.Row)
				}
			}
			e.MustCreateTable(TableSchema{Name: td.Name, Columns: cols, ExpectedRows: float64(len(inserts[td.Name])/windows + 1)})
		}
		name := func(q int) string { return fmt.Sprintf("q%d", q) }
		for q, sql := range w.SQL {
			if admit[q] == 0 {
				e.MustAddQuery(name(q), sql, 0.5)
			}
		}
		s, err := e.StartSession(Options{})
		if err != nil {
			t.Fatal(err)
		}
		accepted := map[string][]value.Row{}
		for k := range windows {
			for q := range w.SQL {
				if retire[q] == k {
					if _, err := s.Retire(name(q)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for q, sql := range w.SQL {
				if k > 0 && admit[q] == k {
					if _, err := s.Admit(name(q), sql, 0.5); err != nil {
						t.Fatal(err)
					}
				}
			}
			data := map[string][]Row{}
			for table, rows := range inserts {
				win := rows[len(rows)*k/windows : len(rows)*(k+1)/windows]
				data[table] = make([]Row, len(win))
				for i, row := range win {
					data[table][i] = facadeRow(row)
				}
				accepted[table] = append(accepted[table], win...)
			}
			if _, err := s.Step(data); err != nil {
				t.Fatal(err)
			}
			for q := range w.SQL {
				if admit[q] > k || retire[q] != -1 && retire[q] <= k {
					continue
				}
				got, err := s.Results(name(q))
				if err != nil {
					t.Fatal(err)
				}
				want := queries[q].Present.Apply(oracle.Eval(queries[q].Root, accepted, nil))
				if g, o := oracle.Canon(engineRows(got)), oracle.Canon(engineRows(facadeRows(want))); !reflect.DeepEqual(g, o) {
					t.Fatalf("seed %d window %d %s: %s\ngot  %v\nwant %v", seed, k, name(q), w.SQL[q], g, o)
				}
			}
		}
	})
}

// facadeRow is row as Step takes it.
func facadeRow(row value.Row) Row {
	out := make(Row, len(row))
	for j, v := range row {
		out[j] = valueToIface(v)
	}
	return out
}

// engineRows converts facade rows back to values, DATE as INT: the one
// form both sides of a comparison reach.
func engineRows(rows []Row) []value.Row {
	out := make([]value.Row, len(rows))
	for i, row := range rows {
		out[i] = make(value.Row, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case int64:
				out[i][j] = value.Int(x)
			case float64:
				out[i][j] = value.Float(x)
			case string:
				out[i][j] = value.Str(x)
			case bool:
				out[i][j] = value.Bool(x)
			}
		}
	}
	return out
}
