package profile

import (
	"math"
	"testing"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []Config{
		{},                                   // no subplans
		{Subplans: 0},                        // explicit zero
		{Subplans: 2, Modeled: []float64{1}}, // baseline length mismatch
		{Subplans: 1, Bound: 0.5},            // bound ≤ 1
		{Subplans: 1, Bound: 1},              // bound ≤ 1
		{Subplans: 1, Alpha: 1.5},            // alpha outside (0, 1]
		{Subplans: 1, Alpha: -0.1},
	}
	for i, cfg := range cases {
		if p := New(cfg); p != nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, cfg)
		}
	}
	if p := New(Config{Subplans: 3}); p == nil {
		t.Fatal("New rejected a minimal valid config")
	}
}

func TestDriftEWMAAndAlerts(t *testing.T) {
	p := New(Config{Subplans: 2, Modeled: []float64{100, 100}, Alpha: 0.5, Bound: 2})

	// Window 0: ratio exactly 1 → EWMA seeds at 1, no alert.
	p.Observe(0, 100, 7, 3)
	samples, alerts := p.FlushWindow(0)
	if len(alerts) != 0 {
		t.Fatalf("window 0: unexpected alerts %+v", alerts)
	}
	if len(samples) != 1 {
		t.Fatalf("window 0: %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Window != 0 || s.Subplan != 0 || s.Modeled != 100 || s.Work != 100 || s.WallNS != 7 || s.Firings != 1 || s.Batches != 3 {
		t.Errorf("window 0 sample = %+v", s)
	}
	if got := p.Drift(0); got != 1 {
		t.Errorf("drift after window 0 = %v, want 1", got)
	}

	// Window 1: ratio 3 → EWMA 0.5·3 + 0.5·1 = 2, not strictly above the
	// bound yet.
	p.Observe(0, 300, 0, 0)
	if _, alerts := p.FlushWindow(1); len(alerts) != 0 {
		t.Fatalf("window 1: unexpected alerts %+v", alerts)
	}
	if got := p.Drift(0); got != 2 {
		t.Errorf("drift after window 1 = %v, want 2", got)
	}

	// Window 2: ratio 3 again → EWMA 2.5 > 2 → alert.
	p.Observe(0, 300, 0, 0)
	_, alerts = p.FlushWindow(2)
	if len(alerts) != 1 {
		t.Fatalf("window 2: alerts = %+v, want exactly one", alerts)
	}
	a := alerts[0]
	if a.Window != 2 || a.Subplan != 0 || a.Drift != 2.5 || a.Modeled != 100 || a.Work != 300 {
		t.Errorf("alert = %+v", a)
	}

	// Subplan 1 never fired: no drift, no samples.
	if got := p.Drift(1); got != 0 {
		t.Errorf("unfired subplan drift = %v, want 0", got)
	}
}

func TestUndershootAlert(t *testing.T) {
	p := New(Config{Subplans: 1, Modeled: []float64{100}, Alpha: 1, Bound: 2})
	p.Observe(0, 10, 0, 0) // ratio 0.1 < 1/2
	if _, alerts := p.FlushWindow(0); len(alerts) != 1 {
		t.Fatalf("undershoot did not alert: %+v", alerts)
	}
}

func TestNoBaselineNoDrift(t *testing.T) {
	p := New(Config{Subplans: 1})
	p.Observe(0, 500, 0, 0)
	samples, alerts := p.FlushWindow(0)
	if len(alerts) != 0 {
		t.Fatalf("alerts without a baseline: %+v", alerts)
	}
	if len(samples) != 1 || samples[0].Modeled != 0 || samples[0].Drift != 0 {
		t.Fatalf("samples = %+v", samples)
	}
	p.SetModeled([]float64{500})
	p.Observe(0, 500, 0, 0)
	if _, alerts := p.FlushWindow(1); len(alerts) != 0 {
		t.Fatalf("calibrated window alerted: %+v", alerts)
	}
	if got := p.Drift(0); got != 1 {
		t.Errorf("drift = %v, want 1", got)
	}
}

func TestModeledAtOverridesModeled(t *testing.T) {
	p := New(Config{
		Subplans:  1,
		Modeled:   []float64{1}, // would make ratio 100
		ModeledAt: func(window, subplan int) float64 { return 100 },
	})
	p.Observe(0, 100, 0, 0)
	if _, alerts := p.FlushWindow(0); len(alerts) != 0 {
		t.Fatalf("ModeledAt did not win over Modeled: %+v", alerts)
	}
}

func TestRingEviction(t *testing.T) {
	p := New(Config{Subplans: 1, Capacity: 4})
	for w := 0; w < 6; w++ {
		p.Observe(0, int64(w+1), 0, 0)
		p.FlushWindow(w)
	}
	if got := p.Recorded(); got != 6 {
		t.Errorf("Recorded() = %d, want 6", got)
	}
	samples := p.Samples()
	if len(samples) != 4 {
		t.Fatalf("Samples() kept %d, want 4", len(samples))
	}
	for i, s := range samples {
		if s.Window != i+2 {
			t.Errorf("sample %d is window %d, want %d (oldest evicted, chronological order)", i, s.Window, i+2)
		}
	}
}

func TestFlushReturnsOnlyFiredSubplans(t *testing.T) {
	p := New(Config{Subplans: 3})
	p.Observe(0, 10, 0, 0)
	p.Observe(2, 30, 0, 0)
	samples, _ := p.FlushWindow(0)
	if len(samples) != 2 || samples[0].Subplan != 0 || samples[1].Subplan != 2 {
		t.Fatalf("samples = %+v", samples)
	}
	// Accumulators reset: a later flush records nothing.
	if samples, _ := p.FlushWindow(1); len(samples) != 0 {
		t.Fatalf("empty window produced samples: %+v", samples)
	}
}

// TestGraftPreservesSurvivingEWMA: a graft carries each adopted subplan's
// EWMA to its new id, drops old ids nothing took over and starts rebuilt
// ones unobserved.
func TestGraftPreservesSurvivingEWMA(t *testing.T) {
	p := New(Config{Subplans: 3, Modeled: []float64{100, 100, 100}, Alpha: 1})
	for sub := 0; sub < 3; sub++ {
		p.Observe(sub, int64(100*(sub+1)), 0, 0)
	}
	p.FlushWindow(0)

	p.Graft(2, nil, []int{0, 2}) // shrink: old 1 dropped, old 2 renumbered to 1
	if got := p.Subplans(); got != 2 {
		t.Fatalf("Subplans() after shrink = %d", got)
	}
	if d := p.Drifts(); len(d) != 2 || d[0] != 1 || d[1] != 3 {
		t.Fatalf("Drifts() after shrink = %v", d)
	}

	p.Graft(4, []float64{100, 100, 100, 100}, []int{-1, 1, -1, 0}) // grow with a fresh baseline
	d := p.Drifts()
	if len(d) != 4 || d[0] != 0 || d[1] != 3 || d[2] != 0 || d[3] != 1 {
		t.Fatalf("Drifts() after grow = %v", d)
	}
	// Rebuilt ids start unobserved; adopted ones keep folding into their EWMA.
	p.Observe(2, 100, 0, 0)
	if _, alerts := p.FlushWindow(1); len(alerts) != 0 {
		t.Fatalf("fresh id alerted on a calibrated window: %+v", alerts)
	}
	if got := p.Drift(2); got != 1 {
		t.Errorf("fresh id drift = %v, want 1", got)
	}

	p.Graft(4, nil, nil) // no map: every subplan starts unobserved
	if d := p.Drifts(); len(d) != 4 || d[0] != 0 || d[1] != 0 || d[2] != 0 || d[3] != 0 {
		t.Fatalf("Drifts() after a graft without a map = %v", d)
	}
}

func TestNilProfilerNoOps(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Error("nil profiler reports enabled")
	}
	p.Observe(0, 1, 2, 3)
	if s, a := p.FlushWindow(0); s != nil || a != nil {
		t.Error("nil FlushWindow returned data")
	}
	if p.Samples() != nil || p.Drifts() != nil {
		t.Error("nil accessors returned data")
	}
	if p.Drift(0) != 0 || p.Subplans() != 0 || p.Recorded() != 0 {
		t.Error("nil scalars non-zero")
	}
	p.SetModeled([]float64{1})
	p.Graft(2, nil, nil)

	if allocs := testing.AllocsPerRun(100, func() {
		p.Observe(0, 1, 2, 3)
		p.FlushWindow(0)
		_ = p.Drift(0)
	}); allocs != 0 {
		t.Errorf("nil profiler allocates %v per run, want 0", allocs)
	}
}

func TestDriftNaNGuard(t *testing.T) {
	p := New(Config{Subplans: 1, Modeled: []float64{100}})
	if d := p.Drift(0); d != 0 || math.IsNaN(d) {
		t.Errorf("unobserved drift = %v, want 0", d)
	}
	if d := p.Drift(99); d != 0 {
		t.Errorf("out-of-range drift = %v, want 0", d)
	}
}

// TestAlertStorageBounded: the profiler keeps only the last window's alerts,
// so a model that stays out of band for 1 000 windows holds no more alert
// storage than one window raises.
func TestAlertStorageBounded(t *testing.T) {
	p := New(Config{Subplans: 2, Modeled: []float64{100, 100}, Bound: 2})
	for w := 0; w < 1000; w++ {
		p.Observe(0, 400, 0, 0)
		p.Observe(1, 25, 0, 0)
		if _, alerts := p.FlushWindow(w); len(alerts) != 2 || alerts[0].Window != w || alerts[1].Subplan != 1 {
			t.Fatalf("window %d: alerts %+v, want one per subplan", w, alerts)
		}
	}
	if n := cap(p.alerts); n > 2 {
		t.Errorf("after 1000 out-of-band windows the profiler retains room for %d alerts, want at most 2", n)
	}
}
