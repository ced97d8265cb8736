package opt

import (
	"math"
	"reflect"
	"testing"

	"ishare/internal/cost"
	"ishare/internal/exec"
)

// executeWithCalibration runs the plan through Execute and calibrates every
// job from the runner that executed it.
func executeWithCalibration(t *testing.T, p *Planned, ds exec.Dataset, numQueries int) (*Outcome, cost.Calibration) {
	t.Helper()
	calib := cost.Calibration{}
	out, err := Execute(p, ds, numQueries, 1, func(job int, r *exec.Runner, _ *exec.Report) error {
		return p.Jobs[job].CalibrateFrom(r, calib)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, calib
}

// TestExecuteMatchesRetiredLoops pins the one run-a-plan loop to what the
// hand-copied loops it replaced returned on the three-query fixture, recorded
// at the last commit that had them: MeasuredBatchFinals' per-query finals,
// and ExecuteWithCalibration's outcome and factors, bit for bit, on a
// one-job and a job-per-query plan.
func TestExecuteMatchesRetiredLoops(t *testing.T) {
	queries, ds := bindSet(t, "Q1", "Q5", "Q15")
	finals, err := MeasuredBatchFinals(queries, ds)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1149, 780, 313}; !reflect.DeepEqual(finals, want) {
		t.Errorf("MeasuredBatchFinals = %v, want %v", finals, want)
	}
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	type factorBits struct {
		job, subplan     int
		work, final, out uint64
	}
	for _, tc := range []struct {
		approach Approach
		total    int64
		final    []int64
		factors  []factorBits
	}{
		{IShareNoUnshare, 3354, []int64{533, 259, 123}, []factorBits{
			{0, 0, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
			{0, 1, 0x3fec5e31cb219993, 0x3ff0000000000000, 0x3ff0001f03c67c51},
			{0, 2, 0x3ff0000000000002, 0x3ff6db6db6db6db7, 0x3feffffffffffffe},
			{0, 3, 0x3fe881843cc39a51, 0x3ff0000000000000, 0x0},
			{0, 4, 0x3fe5fbffe441fdcd, 0x3ff0000000000000, 0x3fda3433fd7c62ef},
			{0, 5, 0x3fd48d1ab4b6d669, 0x3ff0000000000000, 0x3fc0000000000000},
		}},
		{NoShareNonuniform, 3130, []int64{461, 315, 165}, []factorBits{
			{0, 0, 0x3fec390186654ffb, 0x3ff0000000000000, 0x3ff0054465841316},
			{0, 1, 0x3ff004bd669e8ebd, 0x3ff8ab23ad64d193, 0x3ff0054465841316},
			{1, 0, 0x3fea74c0d4f05e03, 0x3ff0000000000000, 0x0},
			{1, 1, 0x3fd7901c6264a7a1, 0x3ff0000000000000, 0x0},
			{2, 0, 0x3febc6cbc21fa2d4, 0x3ff24255f1827d9a, 0x3fe948f5808148af},
			{2, 1, 0x3feb04b38832f3cc, 0x3ff482b4da187278, 0x3fe4b4b4b4b4b4b5},
			{2, 2, 0x3fdd2a57401abc57, 0x3ff0000000000000, 0x3fc0000000000000},
		}},
	} {
		p, err := Plan(tc.approach, Request{Queries: queries, Constraints: abs, MaxPace: 20})
		if err != nil {
			t.Fatal(err)
		}
		out, calib := executeWithCalibration(t, p, ds, len(queries))
		if out.TotalWork != tc.total || !reflect.DeepEqual(out.QueryFinal, tc.final) {
			t.Errorf("%s: outcome %d %v, want %d %v", tc.approach, out.TotalWork, out.QueryFinal, tc.total, tc.final)
		}
		if len(calib) != len(tc.factors) {
			t.Errorf("%s: %d factors, want %d", tc.approach, len(calib), len(tc.factors))
		}
		for _, w := range tc.factors {
			f := calib[p.Jobs[w.job].Graph.Subplans[w.subplan].Root.BaseSignature()]
			got := factorBits{w.job, w.subplan, math.Float64bits(f.Work), math.Float64bits(f.Final), math.Float64bits(f.Out)}
			if got != w {
				t.Errorf("%s job %d subplan %d: factor bits %#x, want %#x", tc.approach, w.job, w.subplan, got, w)
			}
		}
	}
}

func TestExecuteWithCalibrationImprovesEstimates(t *testing.T) {
	queries, ds := bindSet(t, "Q1", "Q5", "Q15")
	abs, err := AbsoluteConstraints(queries, []float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Queries: queries, Constraints: abs, MaxPace: 20}
	p, err := Plan(IShareNoUnshare, req)
	if err != nil {
		t.Fatal(err)
	}
	outcome, calib := executeWithCalibration(t, p, ds, len(queries))
	if len(calib) == 0 {
		t.Fatal("no calibration factors derived")
	}
	for sig, f := range calib {
		if f.Work < 0 || f.Out < 0 || f.Work > 8 || f.Out > 8 {
			t.Errorf("factor out of clamp range for %q: %+v", sig, f)
		}
	}
	// A calibrated model's total-work estimate must land closer to the
	// measured total than the raw model's.
	job := p.Jobs[0]
	raw := cost.NewModel(job.Graph)
	rawEval, err := raw.Evaluate(job.Paces)
	if err != nil {
		t.Fatal(err)
	}
	cal := cost.NewModel(job.Graph)
	cal.SetCalibration(calib)
	calEval, err := cal.Evaluate(job.Paces)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(outcome.TotalWork)
	rawErr := math.Abs(rawEval.Total - measured)
	calErr := math.Abs(calEval.Total - measured)
	if calErr > rawErr {
		t.Errorf("calibration worsened the estimate: |%0.f-%0.f|=%.0f vs raw %.0f",
			calEval.Total, measured, calErr, rawErr)
	}
}

func TestCalibrationFlowsThroughPlan(t *testing.T) {
	queries, ds := bindSet(t, "Q6", "Q14")
	abs, err := AbsoluteConstraints(queries, []float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Queries: queries, Constraints: abs, MaxPace: 15}
	p1, err := Plan(IShare, req)
	if err != nil {
		t.Fatal(err)
	}
	_, calib := executeWithCalibration(t, p1, ds, len(queries))
	req.Calibration = calib
	for _, a := range []Approach{IShare, NoShareUniform, NoShareNonuniform, ShareUniform} {
		p2, err := Plan(a, req)
		if err != nil {
			t.Fatalf("%s with calibration: %v", a, err)
		}
		if _, err := Execute(p2, ds, len(queries), 1, nil); err != nil {
			t.Fatalf("%s execute: %v", a, err)
		}
	}
}

func TestCalibrationFromRunValidation(t *testing.T) {
	queries, _ := bindSet(t, "Q6")
	p, err := Plan(IShareNoUnshare, Request{
		Queries:     queries,
		Constraints: []float64{1e12},
		MaxPace:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cost.CalibrationFromRun(p.Jobs[0].Graph, p.Jobs[0].Paces, []float64{1}, []float64{1}, []float64{1, 2, 3}); err == nil {
		t.Error("mismatched measurement lengths accepted")
	}
}
