package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// viewHarness binds, per predicate, a filter query or (when agg[q]) a
// grouped aggregate over lineitem, so a shared lineitem scan has parents of
// both kinds.
func viewHarness(t testing.TB, preds []string, agg []bool) *harness {
	t.Helper()
	sqls := make(map[string]string, len(preds))
	order := make([]string, len(preds))
	for q, p := range preds {
		order[q] = fmt.Sprintf("q%d", q)
		sqls[order[q]] = "SELECT l_partkey, l_quantity FROM lineitem WHERE " + p
		if agg[q] {
			sqls[order[q]] = "SELECT l_partkey, SUM(l_quantity) AS s FROM lineitem WHERE " + p + " GROUP BY l_partkey"
		}
	}
	return newHarness(t, sqls, order)
}

// viewCursors snapshots where every view reader of se stands, by consuming
// operator.
func viewCursors(se *SubplanExec) map[*viewReader]int {
	at := make(map[*viewReader]int)
	for _, n := range se.nodes {
		for _, src := range n.srcs {
			if v, ok := src.(*viewReader); ok {
				at[v] = v.off
			}
		}
	}
	return at
}

// TestViewProperty runs random admit/retire schedules of filter and
// aggregate queries with random predicates over a lineitem stream with
// deletions, through Graft, at random paces and chunk sizes 1, 7 and the
// default — so view readers attach at construction, at random windows and
// from grafts (rebuilt consumers replaying history, reattached readers). After
// every firing it checks each view against direct per-row evaluation: every
// scan's Work, a scan-rooted subplan's materialization charge, the tuples
// every reader read and the rows it skipped (re-read over the same range),
// each reading operator's Tuples, and the registry's view counters. Filter
// queries' results must equal direct evaluation after every window.
func TestViewProperty(t *testing.T) {
	const windows = 6
	var views, across int
	var skippedAll int64
	for seed := int64(0); seed < 16; seed++ {
		for _, batch := range []int{1, 7, 0} {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(4)
			preds, agg := make([]string, n), make([]bool, n)
			admit, retire := make([]int, n), make([]int, n)
			for q := range preds {
				preds[q] = truthPreds[rng.Intn(len(truthPreds))]
				agg[q] = rng.Intn(2) == 0
				if q > 0 {
					admit[q] = rng.Intn(windows)
					retire[q] = admit[q] + 1 + rng.Intn(windows)
				} else {
					retire[q] = windows
				}
			}
			h := viewHarness(t, preds, agg)
			graphAt := func(k int) *mqo.Graph {
				active := make([]bool, n)
				for q := range active {
					active[q] = admit[q] <= k && k < retire[q]
				}
				return slotGraph(t, h, active, rng.Intn(4) == 0)
			}
			r, err := New(graphAt(0), DeltaDataset{}, Options{Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			var rows []value.Row
			fail := func(k, id int, format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d batch %d window %d subplan %d: %s", seed, batch, k, id, fmt.Sprintf(format, args...))
			}
			for k := 0; k < windows; k++ {
				if k > 0 {
					if _, err := r.Graft(graphAt(k), GraftOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				r.StartWindow(DeltaDataset{"lineitem": randomStream(rng, rng.Intn(60), &rows)})
				logged := r.Data["lineitem"]
				pace := 1 + rng.Intn(3)
				for j := 1; j <= pace; j++ {
					r.ArriveWindow(j, pace)
					for id, se := range r.Execs {
						at := viewCursors(se)
						scanAt := make(map[*mqo.Op]int) // by the op keying the scan's work
						opBefore := make(map[*mqo.Op]Work)
						scans := make(map[*mqo.Op]*scanExec)
						for _, n := range se.nodes {
							opBefore[n.op] = n.work
							if s, ok := n.x.(*scanExec); ok {
								scanAt[n.op], scans[n.op] = s.pos, s
							}
						}
						before := r.TruthStats()
						w := r.RunSubplan(id)
						after := r.TruthStats() // before the re-reads below count too
						for op, from := range scanAt {
							s := scans[op]
							want, _ := viewWant(s.op, s.op.Queries, logged[from:s.pos])
							got := se.OpWork(op)
							got.Add(Work{Tuples: -opBefore[op].Tuples, Output: -opBefore[op].Output})
							if got != (Work{Tuples: int64(s.pos - from), Output: int64(len(want))}) {
								fail(k, id, "scan over [%d, %d) charged %v, want %d output", from, s.pos, got, len(want))
							}
							if se.view == s && w != (Work{Tuples: got.Tuples, Output: 2 * got.Output, Fixed: StartupCostPerOp}) {
								fail(k, id, "view firing charged %v for scan work %v", w, got)
							}
						}
						var rowsRead, skippedRead int64
						readBy := make(map[*mqo.Op]int64)
						for _, n := range se.nodes {
							op := n.op
							for _, src := range n.srcs {
								v, ok := src.(*viewReader)
								if !ok {
									continue
								}
								from := at[v]
								want, wantSkipped := viewWant(v.scan.op, v.want, logged[from:v.off])
								again := newViewReader(v.scan, v.want, batch, from, &viewScratch{})
								again.limit = v.off
								got, skipped := drain(again)
								if !reflect.DeepEqual(got, want) || skipped != wantSkipped {
									fail(k, id, "reader for %v over [%d, %d): %v skipping %d, want %v skipping %d",
										v.want, from, v.off, got, skipped, want, wantSkipped)
								}
								rowsRead += int64(len(want))
								skippedRead += wantSkipped
								readBy[op] += int64(len(want)) + wantSkipped
								views++
								if !isMember(se, v.scan) {
									across++
								}
								skippedAll += wantSkipped
							}
						}
						for op, n := range readBy {
							if len(op.Children) == 1 {
								if got := se.OpWork(op).Tuples - opBefore[op].Tuples; got != n {
									fail(k, id, "op %d read %d tuples from its view, want %d", op.ID, got, n)
								}
							}
						}
						if after.ViewRows-before.ViewRows != rowsRead || after.ViewSkipped-before.ViewSkipped != skippedRead {
							fail(k, id, "view counters moved by %d rows and %d skipped, want %d and %d",
								after.ViewRows-before.ViewRows, after.ViewSkipped-before.ViewSkipped, rowsRead, skippedRead)
						}
					}
				}
				for q := range preds {
					if agg[q] || admit[q] > k || k >= retire[q] {
						continue
					}
					var pass []delta.Tuple
					for _, tup := range logged {
						if markerBits(scanOf(t, r.Graph, q), tup.Row).Has(q) {
							pass = append(pass, tup)
						}
					}
					want := sortedRows(delta.Materialize(delta.Seq{pass}, -1))
					if got := r.SortedResults(q); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d batch %d window %d: query %d returned %v, want %v", seed, batch, k, q, got, want)
					}
				}
			}
		}
	}
	t.Logf("checked %d reads, %d of another subplan's view, skipping %d rows", views, across, skippedAll)
	if views == 0 || across == 0 || skippedAll == 0 {
		t.Fatalf("checked %d reads, %d of another subplan's view, skipping %d rows: the test has no teeth", views, across, skippedAll)
	}
}

// scanOf returns the lineitem scan serving query q in g.
func scanOf(t *testing.T, g *mqo.Graph, q int) *mqo.Op {
	t.Helper()
	for _, o := range g.Plan.Ops {
		if o.Kind == mqo.KindScan && o.Queries.Has(q) {
			return o
		}
	}
	t.Fatalf("no scan serves query %d", q)
	return nil
}

// isMember reports whether s is one of se's member scans.
func isMember(se *SubplanExec, s *scanExec) bool {
	for _, n := range se.nodes {
		if n.x == any(s) {
			return true
		}
	}
	return false
}
