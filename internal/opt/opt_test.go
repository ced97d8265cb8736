package opt

import (
	"testing"

	"ishare/internal/exec"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

const testSF = 0.002

func bindSet(t *testing.T, names ...string) ([]plan.Query, exec.Dataset) {
	t.Helper()
	cat, err := tpch.NewCatalog(testSF)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	return bound, exec.Dataset(tpch.Generate(testSF, 17))
}

func TestApproachString(t *testing.T) {
	names := map[Approach]string{
		NoShareUniform:    "NoShare-Uniform",
		NoShareNonuniform: "NoShare-Nonuniform",
		ShareUniform:      "Share-Uniform",
		IShareNoUnshare:   "iShare (w/o unshare)",
		IShare:            "iShare (w/ unshare)",
		IShareBruteForce:  "iShare (Brute-Force)",
	}
	for a, want := range names {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestAbsoluteConstraints(t *testing.T) {
	queries, _ := bindSet(t, "Q1", "Q6")
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 2 || abs[0] <= 0 || abs[1] <= 0 {
		t.Fatalf("abs = %v", abs)
	}
	full, err := AbsoluteConstraints(queries, []float64{1.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if abs[0] >= full[0] {
		t.Errorf("relative 0.5 not smaller than 1.0: %v vs %v", abs[0], full[0])
	}
	if _, err := AbsoluteConstraints(queries, []float64{1}); err == nil {
		t.Error("mismatched constraint count accepted")
	}
}

func TestAllApproachesPlanAndExecute(t *testing.T) {
	queries, ds := bindSet(t, "Q1", "Q14", "Q15")
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Queries: queries, Constraints: abs, MaxPace: 20}
	for _, a := range []Approach{
		NoShareUniform, NoShareNonuniform, ShareUniform,
		IShareNoUnshare, IShare, IShareBruteForce,
	} {
		p, err := Plan(a, req)
		if err != nil {
			t.Fatalf("%s: Plan: %v", a, err)
		}
		if len(p.Jobs) == 0 {
			t.Fatalf("%s: no jobs", a)
		}
		o, err := Execute(p, ds, len(queries), 1, nil)
		if err != nil {
			t.Fatalf("%s: Execute: %v", a, err)
		}
		if o.TotalWork <= 0 {
			t.Errorf("%s: no work measured", a)
		}
		for q, f := range o.QueryFinal {
			if f <= 0 {
				t.Errorf("%s: query %d final work %d", a, q, f)
			}
		}
	}
}

func TestNoShareBuildsOneJobPerQuery(t *testing.T) {
	queries, _ := bindSet(t, "Q1", "Q6", "Q22")
	abs, _ := AbsoluteConstraints(queries, []float64{1, 1, 1})
	req := Request{Queries: queries, Constraints: abs, MaxPace: 10}
	for _, a := range []Approach{NoShareUniform, NoShareNonuniform} {
		p, err := Plan(a, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Jobs) != 3 {
			t.Errorf("%s: jobs = %d, want 3", a, len(p.Jobs))
		}
	}
}

func TestNoShareUniformUsesSinglePace(t *testing.T) {
	queries, _ := bindSet(t, "Q15")
	abs, _ := AbsoluteConstraints(queries, []float64{0.2})
	p, err := Plan(NoShareUniform, Request{Queries: queries, Constraints: abs, MaxPace: 30})
	if err != nil {
		t.Fatal(err)
	}
	paces := p.Jobs[0].Paces
	for _, v := range paces {
		if v != paces[0] {
			t.Fatalf("NoShare-Uniform produced nonuniform paces %v", paces)
		}
	}
}

func TestNoShareNonuniformCutsAtAggregates(t *testing.T) {
	queries, _ := bindSet(t, "Q15")
	abs, _ := AbsoluteConstraints(queries, []float64{0.2})
	pu, err := Plan(NoShareUniform, Request{Queries: queries, Constraints: abs, MaxPace: 30})
	if err != nil {
		t.Fatal(err)
	}
	pn, err := Plan(NoShareNonuniform, Request{Queries: queries, Constraints: abs, MaxPace: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(pn.Jobs[0].Graph.Subplans) <= len(pu.Jobs[0].Graph.Subplans) {
		t.Errorf("blocking-operator cuts did not add subplans: %d vs %d",
			len(pn.Jobs[0].Graph.Subplans), len(pu.Jobs[0].Graph.Subplans))
	}
}

func TestShareUniformSharesJoins(t *testing.T) {
	// Q4 and Q12 share the orders ⋈ lineitem join (their predicates become
	// markers); with generous constraints the shared plan must do less
	// total work than executing the two joins separately. (Two queries
	// that share only a selective scan can legitimately lose from
	// sharing — the materialization and scan-through overhead the paper
	// charges — so the test uses a join-sharing pair.)
	queries, ds := bindSet(t, "Q4", "Q12")
	abs, _ := AbsoluteConstraints(queries, []float64{8, 8})
	req := Request{Queries: queries, Constraints: abs, MaxPace: 10}
	shared, err := Plan(ShareUniform, req)
	if err != nil {
		t.Fatal(err)
	}
	noShare, err := Plan(NoShareUniform, req)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Execute(shared, ds, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	no, err := Execute(noShare, ds, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if so.TotalWork >= no.TotalWork {
		t.Errorf("Share-Uniform %d not below NoShare-Uniform %d", so.TotalWork, no.TotalWork)
	}
}

func TestIShareBeatsShareUniformOnMixedConstraints(t *testing.T) {
	// The paper's central claim: with one slack query and one tight query
	// over shared work, Share-Uniform over-eagerly executes everything
	// while iShare exploits the slack.
	queries, ds := bindSet(t, "Q1", "Q15")
	abs, err := AbsoluteConstraints(queries, []float64{1.0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Queries: queries, Constraints: abs, MaxPace: 30}
	su, err := Plan(ShareUniform, req)
	if err != nil {
		t.Fatal(err)
	}
	is, err := Plan(IShare, req)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Execute(su, ds, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	io, err := Execute(is, ds, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if io.TotalWork >= so.TotalWork {
		t.Errorf("iShare %d not below Share-Uniform %d", io.TotalWork, so.TotalWork)
	}
}

func TestMeasuredBatchFinals(t *testing.T) {
	queries, ds := bindSet(t, "Q6", "Q1")
	finals, err := MeasuredBatchFinals(queries, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 2 || finals[0] <= 0 || finals[1] <= 0 {
		t.Fatalf("finals = %v", finals)
	}
}

func TestPlanValidation(t *testing.T) {
	queries, _ := bindSet(t, "Q6")
	if _, err := Plan(IShare, Request{Queries: queries, Constraints: []float64{1, 2}, MaxPace: 5}); err == nil {
		t.Error("mismatched constraints accepted")
	}
	if _, err := Plan(IShare, Request{Queries: queries, Constraints: []float64{1}, MaxPace: 0}); err == nil {
		t.Error("max pace 0 accepted")
	}
	if _, err := Plan(Approach(99), Request{Queries: queries, Constraints: []float64{1}, MaxPace: 5}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestShareUniformGoesEagerUnderTightConstraints(t *testing.T) {
	queries, _ := bindSet(t, "Q4", "Q12")
	maxPace := func(rel float64) int {
		abs, err := AbsoluteConstraints(queries, []float64{rel, rel})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Plan(ShareUniform, Request{Queries: queries, Constraints: abs, MaxPace: 30})
		if err != nil {
			t.Fatal(err)
		}
		m := 0
		for _, v := range p.Jobs[0].Paces {
			if v > m {
				m = v
			}
		}
		return m
	}
	loose, tight := maxPace(1.0), maxPace(0.1)
	if tight <= loose {
		t.Errorf("Share-Uniform pace did not rise: %d (rel 1.0) vs %d (rel 0.1)", loose, tight)
	}
}
