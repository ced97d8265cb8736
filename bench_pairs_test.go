package ishare

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// pairsRecord is one line of scripts/bench_pairs.jsonl, the JSON line
// scripts/bench_pairs.sh prints last.
type pairsRecord struct {
	Workload string `json:"workload"`
	Base     string `json:"base"`
	Pairs    int    `json:"pairs"`
	Metrics  map[string]struct {
		Base   *pairsSide `json:"base"`
		Change *pairsSide `json:"change"`
		Wins   *int       `json:"wins"`
		Gain   string     `json:"gain?"`
	} `json:"metrics"`
	// Failed holds each side's failed operations per pair, or
	// "run-failed" for a run that printed no summary.
	Failed struct {
		Base   []any `json:"base"`
		Change []any `json:"change"`
	} `json:"failed"`
}

// pairsSide is one side's quartiles of one metric.
type pairsSide struct {
	Q1     *float64 `json:"q1"`
	Median *float64 `json:"median"`
	Q3     *float64 `json:"q3"`
}

// TestBenchPairsRecord decodes every line of scripts/bench_pairs.jsonl, the
// record of the paired benchmark runs changes were measured by, and requires
// of each the workload, the base revision, the pair count and, per metric,
// both sides' medians, the wins and the verdict.
func TestBenchPairsRecord(t *testing.T) {
	data, err := os.ReadFile("scripts/bench_pairs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines++
		var r pairsRecord
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if r.Workload == "" || r.Base == "" || r.Pairs < 1 || len(r.Metrics) == 0 {
			t.Errorf("line %d: workload %q, base %q, %d pairs, %d metrics", lines, r.Workload, r.Base, r.Pairs, len(r.Metrics))
		}
		for name, m := range r.Metrics {
			if m.Base == nil || m.Base.Median == nil || m.Change == nil || m.Change.Median == nil {
				t.Errorf("line %d (%s): metric %s lacks a side's median", lines, r.Workload, name)
			}
			if m.Wins == nil || *m.Wins > r.Pairs || (m.Gain != "yes" && m.Gain != "no") {
				t.Errorf("line %d (%s): metric %s: wins %v of %d, gain %q", lines, r.Workload, name, m.Wins, r.Pairs, m.Gain)
			}
		}
		if len(r.Failed.Base) != r.Pairs || len(r.Failed.Change) != r.Pairs {
			t.Errorf("line %d (%s): failed operations for %d and %d pairs, want %d each",
				lines, r.Workload, len(r.Failed.Base), len(r.Failed.Change), r.Pairs)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("scripts/bench_pairs.jsonl holds no record")
	}
}
