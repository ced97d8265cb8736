package mqo

import (
	"strings"
	"testing"

	"ishare/internal/plan"
)

// TestPredConflictPrivateCopy checks the Q7 shape: one query scanning the
// same table twice with different predicates must get a private copy for
// the second occurrence — and that copy must not be shared with other
// queries' occurrences.
func TestPredConflictPrivateCopy(t *testing.T) {
	c := testCatalog(t)
	sql := `SELECT p1.p_brand FROM part p1, part p2
		WHERE p1.p_partkey = p2.p_partkey AND p1.p_size = 1 AND p2.p_size = 2`
	sp := buildShared(t, bindQuery(t, c, "q1", sql), bindQuery(t, c, "q2", sql))
	scans := 0
	for _, o := range sp.Ops {
		if o.Kind == KindScan {
			scans++
		}
	}
	// Each query needs two differently-filtered part instances; the first
	// instance may share across queries, the conflicting one is private
	// per query: 1 shared + 2 private = 3 scans.
	if scans != 3 {
		t.Errorf("scans = %d, want 3\n%s", scans, sp.Explain())
	}
	if err := sp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// An occurrence without a predicate passes every row, so it conflicts
	// with a filtered one too, whichever the query reaches first.
	for _, filter := range []string{"p1.p_size = 1", "p2.p_size = 2"} {
		sp := buildShared(t, bindQuery(t, c, "q", `SELECT p1.p_brand FROM part p1, part p2
		WHERE p1.p_partkey = p2.p_partkey AND `+filter))
		scans := 0
		for _, o := range sp.Ops {
			if o.Kind == KindScan {
				scans++
			}
		}
		if scans != 2 {
			t.Errorf("filtered on %s only: scans = %d, want 2\n%s", filter, scans, sp.Explain())
		}
	}
}

func TestExtractWithCuts(t *testing.T) {
	c := testCatalog(t)
	sp := buildShared(t, bindQuery(t, c, "q",
		"SELECT l_partkey, SUM(l_quantity) AS s FROM lineitem GROUP BY l_partkey"))
	plain, err := Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := ExtractWithCuts(sp, func(o *Op) bool { return o.Kind == KindAggregate })
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Subplans) <= len(plain.Subplans) {
		t.Errorf("cuts added no subplans: %d vs %d", len(cut.Subplans), len(plain.Subplans))
	}
	// The aggregate must be a subplan root under cutting.
	found := false
	for _, s := range cut.Subplans {
		if s.Root.Kind == KindAggregate {
			found = true
		}
	}
	if !found {
		t.Error("no aggregate-rooted subplan after cutting")
	}
}

func TestGraphDiagnostics(t *testing.T) {
	c := testCatalog(t)
	sp := buildShared(t,
		bindQuery(t, c, "QA", sqlQA),
		bindQuery(t, c, "QB", sqlQB),
	)
	g, err := Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	text := g.Explain()
	if !strings.Contains(text, "subplan#") || !strings.Contains(text, "children") {
		t.Errorf("graph explain incomplete:\n%s", text)
	}
	for _, s := range g.Subplans {
		for _, o := range s.Ops {
			if g.SubplanOf(o) != s {
				t.Errorf("SubplanOf(op %d) mismatch", o.ID)
			}
		}
		if s.Describe() == "" {
			t.Error("empty subplan description")
		}
	}
	if got := sp.AllQueries(); got.Count() != 2 {
		t.Errorf("AllQueries = %s", got)
	}
}

func TestBaseSignatureStableAcrossClasses(t *testing.T) {
	c := testCatalog(t)
	q1 := bindQuery(t, c, "q1", "SELECT p_brand FROM part WHERE p_size > 10")
	q2 := bindQuery(t, c, "q2", "SELECT p_brand FROM part WHERE p_size < 5")
	shared, err := Build([]plan.Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	split, err := BuildWithOptions([]plan.Query{q1, q2}, BuildOptions{
		Classes: func(sig string, q int) int { return q },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The split plan duplicates the scan, but base signatures match the
	// shared plan's so the decomposer can map paces across rebuilds.
	sharedSigs := map[string]bool{}
	for _, o := range shared.Ops {
		if o.Kind == KindScan {
			sharedSigs[o.BaseSignature()] = true
		}
	}
	scans := 0
	for _, o := range split.Ops {
		if o.Kind == KindScan {
			scans++
			if !sharedSigs[o.BaseSignature()] {
				t.Errorf("split scan base sig %q unknown to the shared plan", o.BaseSignature())
			}
		}
	}
	if scans != 2 {
		t.Errorf("split plan has %d scans, want 2", scans)
	}
	if err := split.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindScan: "Scan", KindJoin: "Join", KindAggregate: "Aggregate", KindProject: "Project",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown kind rendering")
	}
}

func TestSharingReport(t *testing.T) {
	c := testCatalog(t)
	sp := buildShared(t,
		bindQuery(t, c, "QA", sqlQA),
		bindQuery(t, c, "QB", sqlQB),
	)
	r := sp.Sharing()
	if r.TotalOps != len(sp.Ops) {
		t.Errorf("TotalOps = %d, want %d", r.TotalOps, len(sp.Ops))
	}
	if r.SharedOps != sp.SharedOpCount() {
		t.Errorf("SharedOps = %d, want %d", r.SharedOps, sp.SharedOpCount())
	}
	if got := r.PairShared[[2]int{0, 1}]; got != 4 {
		t.Errorf("QA+QB shared ops = %d, want 4", got)
	}
	text := r.String()
	for _, want := range []string{"shared", "QA + QB", "Scan", "Join"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	c := testCatalog(t)
	sp := buildShared(t,
		bindQuery(t, c, "QA", sqlQA),
		bindQuery(t, c, "QB", sqlQB),
	)
	g, err := Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 3
	}
	if err := g.WriteDOT(&buf, paces); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"digraph", "style=dashed", "pace 3", "cluster_0"} {
		if !strings.Contains(text, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Balanced braces.
	if strings.Count(text, "{") != strings.Count(text, "}") {
		t.Error("unbalanced braces in DOT output")
	}
}
