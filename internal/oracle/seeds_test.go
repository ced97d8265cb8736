package oracle_test

import (
	"ishare/internal/catalog"
	"ishare/internal/delta"
	"ishare/internal/oracle"
	"ishare/internal/value"
)

// shrunkSeed is one shrunk workload kept as a deterministic regression.
type shrunkSeed struct {
	name string
	w    *oracle.Workload
}

// shrunkSeeds are the hardest cases the shrinker produced while the
// DebugSkipExtremumRescan fault was injected, each pivoting on retracting a
// MIN/MAX extremum, so any regression in the aggregate's rescan path trips
// them immediately — and deterministically, unlike the generative tests —
// followed by the churn cases and the real mismatches the generative tests
// found, each named after what it pins.
var shrunkSeeds = []shrunkSeed{
	{
		// Delete the group's MIN while a larger value stays live.
		name: "min-retraction-with-survivor",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindDate}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Date(7303)),
					oracle.Del(value.Int(1), value.Date(7303)),
					oracle.Ins(value.Int(2), value.Date(7303)),
				},
			},
			SQL: []string{"SELECT t0.c1, MIN(t0.c0), COUNT(*) FROM t0 GROUP BY t0.c1"},
		},
	},
	{
		// The retracted extremum feeds a join and a HAVING marker over a
		// NULL group key: the stale MIN would both mis-group and mis-filter.
		name: "join-having-null-group",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}}},
				{Name: "t2", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c2", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(4)),
					oracle.Ins(value.Int(5)),
					oracle.Del(value.Int(4)),
				},
				"t2": {
					oracle.Ins(value.Int(4), value.Null),
					oracle.Ins(value.Int(5), value.Null),
				},
			},
			SQL: []string{"SELECT t2.c2, MIN(t0.c0) FROM t0, t2 WHERE t0.c0 = t2.c0 GROUP BY t2.c2 HAVING MIN(t0.c0) <> -1"},
		},
	},
	{
		// MAX and MIN over the same float column: deleting the first row
		// retracts both extrema of the group at once, under a NOT LIKE
		// filter.
		name: "double-extremum-retraction",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindString}, {Name: "c2", Type: value.KindFloat}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(5), value.Str("ba"), value.Float(-1.5)),
					oracle.Ins(value.Int(1), value.Str("ba"), value.Float(2)),
					oracle.Del(value.Int(5), value.Str("ba"), value.Float(-1.5)),
				},
			},
			SQL: []string{"SELECT t0.c1, MAX(t0.c2), MIN(t0.c2) FROM t0 WHERE t0.c1 NOT LIKE 'a%' GROUP BY t0.c1"},
		},
	},
	{
		// Selection vectors that empty mid-pipeline: the first query's scan
		// marker rejects every tuple (its per-marker sub-selection empties in
		// every chunk), the second keeps only positive c0, and the trailing
		// deletes drain the shared groups back to nothing. At chunk size 1
		// every chunk empties; at larger sizes the whole selection survives
		// the scan and dies at the markers — both must agree with the oracle
		// and with each other's modeled work.
		name: "selection-empties-mid-pipeline",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Int(10)),
					oracle.Ins(value.Int(-5), value.Int(10)),
					oracle.Ins(value.Int(2), value.Int(20)),
					oracle.Ins(value.Int(-6), value.Int(20)),
					oracle.Del(value.Int(1), value.Int(10)),
					oracle.Del(value.Int(2), value.Int(20)),
				},
			},
			SQL: []string{
				"SELECT t0.c1, COUNT(*) FROM t0 WHERE t0.c0 > 100 GROUP BY t0.c1",
				"SELECT t0.c1, SUM(t0.c0) FROM t0 WHERE t0.c0 > 0 GROUP BY t0.c1",
			},
		},
	},
	{
		// Online admission onto a live shared subplan: q1 joins at the
		// boundary before window 1, after the shared scan has already
		// ingested (and partially retracted) window 0. The graft must
		// rebuild the scan with both query bits and replay window 0 so
		// q1's SUM sees the full history, while q0's grouped COUNT state
		// carries forward untouched.
		name: "churn-admit-onto-shared-subplan",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Int(10)),
					oracle.Ins(value.Int(2), value.Int(20)),
					oracle.Del(value.Int(1), value.Int(10)),
					oracle.Ins(value.Int(1), value.Int(30)),
					oracle.Ins(value.Int(2), value.Int(40)),
					oracle.Ins(value.Int(3), value.Int(50)),
				},
			},
			SQL: []string{
				"SELECT t0.c0, COUNT(*) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, SUM(t0.c1) FROM t0 GROUP BY t0.c0",
			},
			Churn: &oracle.ChurnPlan{Windows: 2, Admit: []int{0, 1}, Retire: []int{-1, -1}},
		},
	},
	{
		// Retiring the last sharer of a MIN/MAX group frees the aggregate
		// state mid-stream: q1's MIN subplan leaves at the boundary before
		// window 2, right before the deletions that would have forced its
		// extremum rescan. The remaining query's plan must be byte-identical
		// to one that never shared with it.
		name: "churn-retire-last-minmax-sharer",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindFloat}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Float(0.5)),
					oracle.Ins(value.Int(1), value.Float(-1.25)),
					oracle.Ins(value.Int(2), value.Float(3)),
					oracle.Del(value.Int(1), value.Float(-1.25)),
					oracle.Del(value.Int(2), value.Float(3)),
					oracle.Ins(value.Int(2), value.Float(2.25)),
				},
			},
			SQL: []string{
				"SELECT t0.c0, COUNT(*) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, MIN(t0.c1) FROM t0 GROUP BY t0.c0",
			},
			Churn: &oracle.ChurnPlan{Windows: 3, Admit: []int{0, 0}, Retire: []int{-1, 2}},
		},
	},
	{
		// Admit and retire the same signature in one boundary: q1 leaves
		// and q2 — byte-identical SQL — takes over its freed slot at the
		// boundary before window 1. The rebuilt plan is state-identical to
		// the old one (same slot, same marker, same bitset), so the graft
		// adopts every subplan wholesale, and q2 must inherit exactly the
		// history q1 had accumulated.
		name: "churn-same-signature-handover",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Int(7)),
					oracle.Ins(value.Int(2), value.Int(9)),
					oracle.Del(value.Int(1), value.Int(7)),
					oracle.Ins(value.Int(1), value.Int(11)),
				},
			},
			SQL: []string{
				"SELECT t0.c0, COUNT(*) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, MAX(t0.c1) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, MAX(t0.c1) FROM t0 GROUP BY t0.c0",
			},
			Churn: &oracle.ChurnPlan{Windows: 2, Admit: []int{0, 0, 1}, Retire: []int{-1, 1, -1}},
		},
	},
	{
		// Share, toggle, then retire mid-window: q1 and q2 are twin joins
		// whose build sides share one arrangement pair. Sharing flips at the
		// boundary before window 1 (new attaches go private while the shared
		// state keeps its holders), then q2 retires at the boundary before
		// window 2 — dropping a handle on an arrangement built under the
		// other sharing mode, with deletions still arriving for the
		// surviving twin to apply against the multi-version index.
		name: "churn-share-toggle-retire",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
				{Name: "t1", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c2", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Int(10)),
					oracle.Ins(value.Int(2), value.Int(20)),
					oracle.Del(value.Int(1), value.Int(10)),
					oracle.Ins(value.Int(1), value.Int(30)),
					oracle.Ins(value.Int(3), value.Int(40)),
					oracle.Del(value.Int(2), value.Int(20)),
				},
				"t1": {
					oracle.Ins(value.Int(1), value.Int(-1)),
					oracle.Ins(value.Int(2), value.Int(-2)),
					oracle.Del(value.Int(1), value.Int(-1)),
					oracle.Ins(value.Int(3), value.Int(-3)),
				},
			},
			SQL: []string{
				"SELECT t0.c0, COUNT(*) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c1, t1.c2 FROM t0, t1 WHERE t0.c0 = t1.c0",
				"SELECT t0.c1, t1.c2 FROM t0, t1 WHERE t0.c0 = t1.c0",
			},
			Churn: &oracle.ChurnPlan{Windows: 3, Admit: []int{0, 0, 0}, Retire: []int{-1, -1, 2}, ToggleShare: []int{1}},
		},
	},
	{
		// Same-boundary handover under a double sharing toggle: q1 retires
		// and its twin q2 admits at the boundary before window 1, right
		// after sharing flips — the admitted twin's fresh executors must
		// warm-attach (or build private, depending on the flipped mode) and
		// still replay window 0's history exactly; sharing flips back before
		// window 2 while both aggregate group indexes keep serving.
		name: "churn-toggle-handover",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindFloat}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(1), value.Float(0.5)),
					oracle.Ins(value.Int(2), value.Float(1.5)),
					oracle.Del(value.Int(1), value.Float(0.5)),
					oracle.Ins(value.Int(1), value.Float(2.5)),
					oracle.Ins(value.Int(2), value.Float(3.5)),
					oracle.Del(value.Int(2), value.Float(1.5)),
				},
			},
			SQL: []string{
				"SELECT t0.c0, COUNT(*) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, SUM(t0.c1) FROM t0 GROUP BY t0.c0",
				"SELECT t0.c0, SUM(t0.c1) FROM t0 GROUP BY t0.c0",
			},
			Churn: &oracle.ChurnPlan{Windows: 3, Admit: []int{0, 0, 1}, Retire: []int{-1, 1, -1}, ToggleShare: []int{1, 2}},
		},
	},
	{
		// One query reads t1 twice, filtered on one side only: the two scans
		// must stay apart, or the one scan they would merge into applies
		// the filter to both sides and drops b = (5, NULL) as a partner of
		// c (first query) or c = (5, NULL) as a partner of b (second). A
		// real mismatch, found by the deep-join family at generator seed 2.
		name: "self-join-filtered-on-one-side",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t0", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
				{Name: "t1", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t0": {
					oracle.Ins(value.Int(5), value.Int(3)),
				},
				"t1": {
					oracle.Ins(value.Int(5), value.Null),
					oracle.Ins(value.Int(5), value.Int(2)),
				},
			},
			SQL: []string{
				"SELECT b.c0, COUNT(*), AVG(a.c1) FROM t0 a, t1 b, t1 c WHERE a.c0 = b.c0 AND a.c0 = c.c0 AND b.c1 >= 0 AND a.c1 BETWEEN 3 AND 3 GROUP BY b.c0",
				"SELECT b.c0, COUNT(*) FROM t0 a, t1 b, t1 c WHERE a.c0 = b.c0 AND a.c0 = c.c0 AND c.c1 >= 0 GROUP BY b.c0",
			},
		},
	},
	{
		// A shared join changes its output layout under an unchanged state
		// signature: q2 retires and q1 takes its slot at the boundary before
		// window 2, so the t2 ⋈ t1 join keeps its query bitset but now feeds
		// t2.c1 and t2.c2 to q1's projection instead of t2.c2 and t1.c0 to
		// q2's aggregate. The graft must rebuild the join, and q0's root
		// above it, rather than adopt them: adopted, they hand q1 rows in the
		// old layout. Shrunk from generator seed 1002, which the fuzz corpus
		// replays in full.
		name: "churn-layout-handover",
		w: &oracle.Workload{
			Tables: []oracle.TableDef{
				{Name: "t1", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindDate}}},
				{Name: "t2", Cols: []catalog.Column{{Name: "c0", Type: value.KindInt}, {Name: "c1", Type: value.KindDate}, {Name: "c2", Type: value.KindInt}}},
			},
			Streams: map[string][]delta.Tuple{
				"t1": {
					oracle.Ins(value.Int(4), value.Date(7302)),
				},
				"t2": {
					oracle.Ins(value.Int(4), value.Date(7309), value.Int(6)),
				},
			},
			SQL: []string{
				"SELECT t2.c0 FROM t2, t1 WHERE t2.c0 = t1.c0 AND t1.c0 BETWEEN 2 AND 2 AND t2.c2 IN (4, 1)",
				"SELECT t2.c1, t2.c2 + t2.c0 FROM t2, t1 WHERE t2.c0 = t1.c0",
				"SELECT t2.c0, MIN(t2.c2), MAX(t1.c0) FROM t2, t1 WHERE t2.c0 = t1.c0 GROUP BY t2.c0 HAVING MIN(t2.c2) = 1",
			},
			Churn: &oracle.ChurnPlan{Windows: 4, Admit: []int{0, 2, 0}, Retire: []int{-1, -1, 2}},
		},
	},
}
