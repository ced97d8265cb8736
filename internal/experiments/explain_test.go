package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ishare/internal/opt"
	"ishare/internal/trace"
)

// TestExplainQueries plans Q1, Q6 and Q14 at relative constraint 0.5 and
// checks the EXPLAIN report: it carries the planned pace vector, one row per
// subplan at its planned pace, nonzero memo counters and the pace search's
// decision log, and ExplainQueries renders exactly that report.
func TestExplainQueries(t *testing.T) {
	cfg := tinyCfg().withDefaults()
	names := []string{"Q1", "Q6", "Q14"}
	w, err := NewWorkload(cfg, names, false)
	if err != nil {
		t.Fatal(err)
	}
	rel := UniformRel(len(names), 0.5)
	abs, err := opt.AbsoluteConstraints(w.Queries, rel)
	if err != nil {
		t.Fatal(err)
	}
	req := opt.Request{Queries: w.Queries, Constraints: abs, MaxPace: cfg.MaxPace, Trace: trace.New()}
	p, err := opt.Plan(opt.IShare, req)
	if err != nil {
		t.Fatal(err)
	}
	e, err := opt.BuildExplain(p, req, w.Names, rel)
	if err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(e.Queries, names) || !slices.Equal(e.Rel, rel) {
		t.Errorf("report queries %v at %v, want %v at %v", e.Queries, e.Rel, names, rel)
	}
	if len(e.Jobs) != len(p.Jobs) {
		t.Fatalf("report has %d jobs, plan %d", len(e.Jobs), len(p.Jobs))
	}
	for ji, job := range p.Jobs {
		ej := e.Jobs[ji]
		if !slices.Equal(ej.Paces, job.Paces) {
			t.Errorf("job %d: report pace vector %v, planned %v", ji, ej.Paces, job.Paces)
		}
		if len(ej.Subplans) != len(job.Graph.Subplans) {
			t.Fatalf("job %d: %d subplan rows for %d subplans", ji, len(ej.Subplans), len(job.Graph.Subplans))
		}
		for i, row := range ej.Subplans {
			if row.ID != i || row.Pace != job.Paces[i] || len(row.Queries) == 0 {
				t.Errorf("job %d: row %d is %+v, want subplan %d at pace %d", ji, i, row, i, job.Paces[i])
			}
		}
		if ej.MemoLookups == 0 || ej.MemoHits == 0 || ej.Sims == 0 || ej.Evals == 0 {
			t.Errorf("job %d: memo lookups %d, hits %d, sims %d, evals %d, want all nonzero", ji, ej.MemoLookups, ej.MemoHits, ej.Sims, ej.Evals)
		}
	}
	if len(e.PaceDecisions) == 0 {
		t.Error("report has no pace-search decisions")
	}

	var want, got bytes.Buffer
	e.Write(&want)
	if err := ExplainQueries(tinyCfg(), names, opt.IShare, 0.5, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("ExplainQueries wrote\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
	if !bytes.Contains(got.Bytes(), fmt.Appendf(nil, "pace vector %v", p.Jobs[0].Paces)) {
		t.Errorf("EXPLAIN text lacks the planned pace vector %v:\n%s", p.Jobs[0].Paces, got.Bytes())
	}
}
