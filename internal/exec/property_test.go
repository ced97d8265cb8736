package exec

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPropertyAnyPaceMatchesBatch is the engine's core invariant: for any
// pace configuration (respecting parent ≤ child) and any dataset, the net
// materialized result of every query equals batch execution.
func TestPropertyAnyPaceMatchesBatch(t *testing.T) { overOptions(t, testPropertyAnyPaceMatchesBatch) }

func testPropertyAnyPaceMatchesBatch(t *testing.T) {
	sqls := map[string]string{
		"agg": `SELECT l_partkey, SUM(l_quantity) AS sq, COUNT(*) AS c
			FROM lineitem GROUP BY l_partkey`,
		"join": `SELECT p_brand, l_quantity FROM part, lineitem
			WHERE p_partkey = l_partkey AND p_size > 3`,
		"nested": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq
			FROM lineitem GROUP BY l_partkey) t`,
	}
	order := []string{"agg", "join", "nested"}
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 25; trial++ {
		nLine := 5 + rng.Intn(40)
		nPart := 3 + rng.Intn(8)
		var line [][2]int64
		for i := 0; i < nLine; i++ {
			line = append(line, [2]int64{int64(rng.Intn(nPart)), int64(rng.Intn(50) - 10)})
		}
		var parts [][3]interface{}
		for i := 0; i < nPart; i++ {
			parts = append(parts, [3]interface{}{i, string(rune('A' + i%5)), rng.Intn(10)})
		}
		data := Dataset{"lineitem": lineitemRows(line...), "part": partRows(parts...)}

		hBatch := newHarness(t, sqls, order)
		rBatch, _ := hBatch.run(t, data, nil)

		hInc := newHarness(t, sqls, order)
		// Random paces respecting parent <= child: assign by descending
		// topological position.
		paces := make([]int, len(hInc.graph.Subplans))
		for _, s := range hInc.graph.Subplans {
			max := 8
			for _, p := range s.Parents {
				if paces[p.ID] > 0 && paces[p.ID] < max {
					_ = p
				}
			}
			paces[s.ID] = 1 + rng.Intn(max)
			// Children appear before parents in Subplans order, so fix up
			// parents later instead: see below.
		}
		// Enforce parent <= child by a reverse pass.
		for i := len(hInc.graph.Subplans) - 1; i >= 0; i-- {
			s := hInc.graph.Subplans[i]
			for _, c := range s.Children {
				if paces[c.ID] < paces[s.ID] {
					paces[c.ID] = paces[s.ID]
				}
			}
		}
		rInc, _ := hInc.run(t, data, paces)

		for q := range order {
			got, want := rInc.SortedResults(q), rBatch.SortedResults(q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %s paces %v:\nincremental %v\nbatch       %v",
					trial, order[q], paces, got, want)
			}
		}
	}
}

// TestPropertyDeletesCancel checks that inserting rows and then deleting
// them leaves every query's result empty.
func TestPropertyDeletesCancel(t *testing.T) { overOptions(t, testPropertyDeletesCancel) }

func testPropertyDeletesCancel(t *testing.T) {
	h := newHarness(t, map[string]string{
		"q": "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
	}, []string{"q"})
	r, err := New(h.graph, InsertStream(Dataset{}), h.opts)
	if err != nil {
		t.Fatal(err)
	}
	log, err := r.TableLog("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rows := lineitemRows([2]int64{1, 10}, [2]int64{2, 7}, [2]int64{1, 3})
	for _, row := range rows {
		log.Append(InsertTuple(row))
	}
	se := r.Execs[h.graph.QueryRootSubplan[0].ID]
	se.RunOnce()
	if got := r.SortedResults(0); len(got) != 2 {
		t.Fatalf("after inserts: %v", got)
	}
	// Delete everything.
	for _, row := range rows {
		tup := InsertTuple(row)
		tup.Sign = -1
		log.Append(tup)
	}
	se.RunOnce()
	if got := r.SortedResults(0); len(got) != 0 {
		t.Errorf("after deletes: %v, want empty", got)
	}
}
