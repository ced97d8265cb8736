package main

import "testing"

func TestParseArgsFlags(t *testing.T) {
	opts, err := parseArgs([]string{"-experiment", "sched", "-serve-metrics", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Experiment != "sched" {
		t.Errorf("Experiment = %q, want sched", opts.Experiment)
	}
	if opts.ServeMetrics != ":0" {
		t.Errorf("ServeMetrics = %q, want :0", opts.ServeMetrics)
	}
}

func TestParseArgsDefaults(t *testing.T) {
	opts, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Experiment != "all" {
		t.Errorf("default Experiment = %q, want all", opts.Experiment)
	}
	if opts.ServeMetrics != "" {
		t.Errorf("default ServeMetrics = %q, want empty", opts.ServeMetrics)
	}
}

// TestParseArgsRejectsUnknownFlag also covers -opt-workers: the pace search
// runs on one goroutine, so the flag that sized its worker pool is gone.
func TestParseArgsRejectsUnknownFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-opt-workers"} {
		if _, err := parseArgs([]string{flag, "3"}); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}
