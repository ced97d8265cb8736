package mqo

import (
	"testing"

	"ishare/internal/plan"
)

// TestLocalAndRestrictedSignatures admits a third query, with an aggregate of
// its own, onto a shared filtered lineitem scan. The scan's query set grows,
// so MatchSubplans pairs nothing: the scan's local signature changes, and the
// aggregates above it read an unpaired input. The aggregates' local
// signatures do not change, and neither does the scan cone as either original
// query sees it. An aggregate's cone has no restricted signature.
func TestLocalAndRestrictedSignatures(t *testing.T) {
	c := testCatalog(t)
	q := func(name, agg, cut string) plan.Query {
		return bindQuery(t, c, name, "SELECT l_partkey, "+agg+" AS a FROM lineitem WHERE l_quantity > "+cut+" GROUP BY l_partkey")
	}
	graph := func(qs ...plan.Query) *Graph {
		g, err := Extract(buildShared(t, qs...))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	q0, q1, q2 := q("q0", "SUM(l_quantity)", "5"), q("q1", "COUNT(*)", "10"), q("q2", "MAX(l_quantity)", "20")
	before, after := graph(q0, q1), graph(q0, q1, q2)
	if len(before.Subplans) != 3 || len(after.Subplans) != 4 {
		t.Fatalf("subplans %d → %d, want a shared scan under one aggregate per query", len(before.Subplans), len(after.Subplans))
	}
	if match := MatchSubplans(before, after); len(match) != 0 {
		t.Errorf("admission onto the shared scan kept pairs %v", match)
	}
	if match := MatchSubplans(before, before); len(match) != len(before.Subplans) {
		t.Errorf("a graph pairs %v with itself, want the identity", match)
	}
	localB, localA := LocalStateSignatures(before), LocalStateSignatures(after)
	for slot := 0; slot < 2; slot++ {
		b, a := before.QueryRootSubplan[slot], after.QueryRootSubplan[slot]
		if localB[b.ID] != localA[a.ID] {
			t.Errorf("query %d: local signature changed:\n %s\n %s", slot, localB[b.ID], localA[a.ID])
		}
		mask := Bit(slot)
		rb, okB := RestrictedConeSignature(before, b.Children[0], mask)
		ra, okA := RestrictedConeSignature(after, a.Children[0], mask)
		if !okB || !okA || rb != ra {
			t.Errorf("query %d: restricted scan cone %q (%v) vs %q (%v)", slot, rb, okB, ra, okA)
		}
		if _, ok := RestrictedConeSignature(after, a, mask); ok {
			t.Errorf("query %d: an aggregate's cone has a restricted signature", slot)
		}
	}
	scan := after.QueryRootSubplan[0].Children[0]
	all, _ := RestrictedConeSignature(after, scan, scan.Queries)
	one, _ := RestrictedConeSignature(after, scan, Bit(0))
	if all == one {
		t.Error("restricting to one query left the scan cone's rendering unchanged")
	}
}
