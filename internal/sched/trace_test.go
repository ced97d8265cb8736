package sched_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/oracle"
	"ishare/internal/profile"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files under testdata/")

// runTraced drives one full scheduler run with a tracer sharing the run's
// virtual clock and returns the exported Chrome trace — every firing's due,
// start, finish and work — alongside the run's result JSON and metrics
// snapshot. A nil-tracer run is requested with traced=false; its Chrome
// trace is then empty.
func runTraced(t *testing.T, tp *testPlan, paces []int, windows, workers int, traced bool) (chrome, runBytes []byte, s *sched.Scheduler) {
	t.Helper()
	clock := sched.NewVirtualClock(time.Unix(0, 0))
	var tr *trace.Tracer
	if traced {
		tr = trace.NewWithClock(clock.Now)
	}
	deadlines := make([]time.Duration, tp.graph.Plan.NumQueries())
	for i := range deadlines {
		deadlines[i] = 100 * time.Millisecond
	}
	s, err := sched.New(tp.graph, paces, sched.Slices{Data: tp.data, N: windows}, sched.Config{
		Window:    time.Second,
		Windows:   windows,
		Clock:     clock,
		WorkRate:  50_000,
		Deadlines: deadlines,
		Workers:   workers,
		Tracer:    tr,
		TraceName: "golden",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	snapJSON, err := s.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), append(append(resJSON, '\n'), snapJSON...), s
}

// TestGoldenChromeTrace pins the exported Chrome trace for one seeded
// workload on the virtual clock: the trace must be byte-identical at
// Workers=1 and Workers=4 (spans come only from the scheduler's canonical
// accounting loop; workers feed order-independent counters) and must match
// the checked-in golden file. Regenerate with:
//
//	go test ./internal/sched -run TestGoldenChromeTrace -update
func TestGoldenChromeTrace(t *testing.T) {
	tp := buildPlan(t, 7)
	paces := randPaces(rand.New(rand.NewSource(7)), tp.graph, 6)

	one, _, _ := runTraced(t, tp, paces, 3, 1, true)
	four, _, _ := runTraced(t, tp, paces, 3, 4, true)
	if !bytes.Equal(one, four) {
		t.Fatalf("trace differs across worker counts:\nworkers=1:\n%s\n--- vs workers=4 ---\n%s", one, four)
	}

	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, one, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(one))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(one, want) {
		t.Errorf("trace diverged from golden file %s (regenerate with -update if the change is intended)\ngot %d bytes, want %d", golden, len(one), len(want))
	}

	// The golden trace must actually be a loadable Chrome trace with the
	// expected track structure.
	var parsed struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(one, &parsed); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range parsed.TraceEvents {
		cats[e.Cat]++
	}
	for _, want := range []string{"sched", "deadline"} {
		if cats[want] == 0 {
			t.Errorf("golden trace has no %q events (cats: %v)", want, cats)
		}
	}
}

// TestTracingDoesNotChangeResults is the observer-effect check: the same
// seeded run with the tracer on and off — and with the full observability
// stack (profiler, event log, status board) attached — must produce
// byte-identical result summaries and metrics snapshots, the traced and
// observed runs must export the same Chrome trace (so no sink shifts an
// individual firing's due, start, finish or work), and the observed runs'
// query results must still match the oracle.
func TestTracingDoesNotChangeResults(t *testing.T) {
	tp := buildPlan(t, 9)
	paces := randPaces(rand.New(rand.NewSource(9)), tp.graph, 6)

	for _, workers := range []int{1, 4} {
		_, plain, _ := runTraced(t, tp, paces, 2, workers, false)
		chrome, traced, s := runTraced(t, tp, paces, 2, workers, true)
		if !bytes.Equal(plain, traced) {
			t.Errorf("workers=%d: tracing changed the run:\nuntraced:\n%s\n--- vs traced ---\n%s", workers, plain, traced)
		}
		for q, want := range tp.want {
			got := oracle.Canon(s.Results(q))
			if !eqStrings(got, want) {
				t.Errorf("workers=%d: traced run query %d results = %v, want %v", workers, q, got, want)
			}
		}

		// Profiling, event logging, and status publication ride the same
		// canonical accounting loop and must be equally invisible.
		clock := sched.NewVirtualClock(time.Unix(0, 0))
		tr := trace.NewWithClock(clock.Now)
		so, observed := runObserved(t, tp, paces, 2, obsOpts{
			prof:    profile.New(profile.Config{Subplans: len(tp.graph.Subplans)}),
			ev:      eventlog.New(nil, 0),
			status:  &sched.StatusBoard{},
			clock:   clock,
			tracer:  tr,
			workers: workers,
		})
		if !bytes.Equal(plain, observed) {
			t.Errorf("workers=%d: observability changed the run:\nplain:\n%s\n--- vs observed ---\n%s", workers, plain, observed)
		}
		var obsChrome bytes.Buffer
		if err := tr.WriteChrome(&obsChrome); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chrome, obsChrome.Bytes()) {
			t.Errorf("workers=%d: observability changed the per-firing trace:\ntraced:\n%s\n--- vs observed ---\n%s", workers, chrome, obsChrome.Bytes())
		}
		for q, want := range tp.want {
			if got := oracle.Canon(so.Results(q)); !eqStrings(got, want) {
				t.Errorf("workers=%d: observed run query %d results = %v, want %v", workers, q, got, want)
			}
		}
	}
}
