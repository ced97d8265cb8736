package sched_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"testing"
	"time"

	"ishare/internal/exec"
	"ishare/internal/oracle"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

// soakTime stretches TestSchedulerSoak to a wall-clock budget; the CI soak
// job runs `-soaktime 30s` under the race detector. The clock inside each
// scheduled run stays virtual — the budget only bounds how many random
// scenarios are fuzzed, never how long any one of them sleeps.
var soakTime = flag.Duration("soaktime", 0, "wall-clock budget for the scheduler soak (0 = a few fixed iterations)")

// TestSchedulerSoak fuzzes random workloads, pace vectors, worker counts,
// window counts, work rates, deadlines and injected slowdowns through the
// scheduler, checking on every scenario that (1) the run is byte-identical
// when repeated, (2) deadline accounting is conserved (met+missed =
// windows×queries), and (3) trigger-point results match the oracle.
func TestSchedulerSoak(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 3
	}
	deadline := time.Time{}
	if *soakTime > 0 {
		iters = 1 << 30
		deadline = time.Now().Add(*soakTime)
	}
	defer func() { exec.DebugSlowSubplan = nil }()

	for i := 0; i < iters; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			t.Logf("soak budget exhausted after %d scenarios", i)
			break
		}
		seed := int64(100 + i)
		r := rand.New(rand.NewSource(seed))
		tp := buildPlan(t, seed)
		paces := randPaces(r, tp.graph, 6)
		windows := 1 + r.Intn(3)
		workers := []int{1, 4}[r.Intn(2)]
		workRate := float64(5_000 * (1 + r.Intn(20)))
		deadlines := make([]time.Duration, tp.graph.Plan.NumQueries())
		for q := range deadlines {
			deadlines[q] = time.Duration(r.Intn(500)) * time.Millisecond
		}
		if r.Intn(2) == 0 {
			slow, pen := r.Intn(len(tp.graph.Subplans)), int64(1_000*(1+r.Intn(30)))
			exec.DebugSlowSubplan = func(id int) int64 {
				if id == slow {
					return pen
				}
				return 0
			}
		} else {
			exec.DebugSlowSubplan = nil
		}

		run := func() (*sched.Scheduler, []byte) {
			clock := sched.NewVirtualClock(time.Unix(0, 0))
			tr := trace.NewWithClock(clock.Now)
			s, err := sched.New(tp.graph, paces, sched.Slices{Data: tp.data, N: windows}, sched.Config{
				Window:    time.Second,
				Windows:   windows,
				Clock:     clock,
				WorkRate:  workRate,
				Deadlines: deadlines,
				Workers:   workers,
				Tracer:    tr,
			})
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			nq := tp.graph.Plan.NumQueries()
			if res.Met+res.Missed != windows*nq {
				t.Errorf("scenario %d: met %d + missed %d != %d windows × %d queries",
					i, res.Met, res.Missed, windows, nq)
			}
			resJSON, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			snapJSON, err := s.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			out := bytes.NewBuffer(append(append(resJSON, '\n'), snapJSON...))
			if err := tr.WriteChrome(out); err != nil {
				t.Fatal(err)
			}
			return s, out.Bytes()
		}

		s, first := run()
		for q, want := range tp.want {
			if got := oracle.Canon(s.Results(q)); !eqStrings(got, want) {
				t.Errorf("scenario %d (seed %d, paces %v, workers %d, windows %d): query %d = %v, want %v",
					i, seed, paces, workers, windows, q, got, want)
			}
		}
		if _, second := run(); string(first) != string(second) {
			t.Errorf("scenario %d (seed %d, paces %v, workers %d, windows %d) is not deterministic",
				i, seed, paces, workers, windows)
		}
	}
}
