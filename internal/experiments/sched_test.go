package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ishare/internal/eventlog"
	"ishare/internal/metrics"
)

// TestSchedulerLatency runs the scheduler-backed latency experiment on a
// tiny scale factor and checks its accounting invariants: one row per
// approach, every (query, window) deadline resolved exactly once, and the
// shared metrics registry populated for the -serve-metrics endpoint. With
// profiling on, each subplan's drift baseline must be in per-window units:
// a whole-run baseline makes every subplan drift to about 1/windows, so
// alerts fire every window and recalibration chases a units error.
func TestSchedulerLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := tinyCfg()
	cfg.Profile = true
	cfg.Events = eventlog.New(nil, 0)
	r, err := SchedulerLatency(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(DefaultApproaches) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(DefaultApproaches))
	}
	want := r.Windows * len(r.Names)
	for _, row := range r.Rows {
		if row.Met+row.Missed != want {
			t.Errorf("%s: met %d + missed %d != %d windows × %d queries",
				row.Approach, row.Met, row.Missed, r.Windows, len(r.Names))
		}
		if row.TotalWork <= 0 {
			t.Errorf("%s: no work recorded", row.Approach)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["sched.windows"] == 0 {
		t.Error("shared registry saw no windows")
	}
	if snap.Counters["sched.executions"] == 0 {
		t.Error("shared registry saw no executions")
	}

	var buf bytes.Buffer
	r.Report(&buf)
	for _, wantStr := range []string{"approach", "ishare", "met"} {
		if !strings.Contains(strings.ToLower(buf.String()), wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, buf.String())
		}
	}

	alerts := 0
	for _, e := range cfg.Events.Events() {
		if e.Type == "drift.alert" {
			alerts++
		}
	}
	if alerts != 4 {
		t.Errorf("%d drift alerts, want 4", alerts)
	}
	cfg = tinyCfg()
	cfg.Recalibrate = true
	r, err = SchedulerLatency(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 0, 0} {
		if got := r.Rows[i].Recalibrations; got != want {
			t.Errorf("%s: %d recalibrations, want %d", r.Rows[i].Approach, got, want)
		}
	}
}
