package exec_test

// Both regimes of the join state update — identity index and chain walk —
// held to one observable behaviour, on workloads that cross the shipped
// threshold and (forced through exec.IndexRegimes) on ones that do not.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"testing"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/oracle"
	"ishare/internal/sched"
	"ishare/internal/tpch"
	"ishare/internal/trace"
)

var jobSF = flag.Float64("jobsf", 0.1, "scale factor of TestJobWalkComparisons; 2 is the repository benchmark's exec_batch22 job")

// planJob plans the repository benchmark's job — the 22 queries, query q
// at relative constraint level q mod 4, by opt.Plan(IShare) — at scale sf.
func planJob(t *testing.T, sf float64) []opt.Job {
	t.Helper()
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{1.0, 0.5, 0.2, 0.1}
	rel := make([]float64, len(bound))
	for q := range rel {
		rel[q] = levels[q%len(levels)]
	}
	abs, err := opt.AbsoluteConstraints(bound, rel)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: abs, MaxPace: 40, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return planned.Jobs
}

// runJob executes the repository benchmark's job (planJob) and returns its
// runners.
func runJob(t *testing.T, sf float64, opts exec.Options) []*exec.Runner {
	t.Helper()
	data := tpch.Generate(sf, 1)
	var runners []*exec.Runner
	for _, pj := range planJob(t, sf) {
		r, err := exec.New(pj.Graph, exec.InsertStream(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(pj.Paces); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	return runners
}

// TestJobWalkComparisons counts the entries the join state update compares
// in one whole job. Past the threshold a chain is never walked, so the
// count is bounded by threshold × deltas applied however skewed the keys
// are (TPC-H joins on nation and region keys put thousands of rows under
// one key); with the index off the same job must walk strictly more, or
// the workload never engaged it. Run with -jobsf 2 -v for the numbers of
// the repository benchmark's exec_batch22 job.
func TestJobWalkComparisons(t *testing.T) {
	// Walk counts are per delta, so chunking must not move them: the
	// three-tuple batch has to meet the same bounds as the default.
	for _, o := range []exec.Options{{}, {Batch: 3}} {
		t.Run(fmt.Sprintf("%+v", o), func(t *testing.T) { jobWalkComparisons(t, o) })
	}
}

func jobWalkComparisons(t *testing.T, opts exec.Options) {
	type counts struct{ applied, walked int64 }
	var got []counts // in IndexRegimes' order: shipped threshold, 0, ∞
	exec.IndexRegimes(t, func(t *testing.T) {
		var entries, indexed int64
		var c counts
		var longest int32
		for _, r := range runJob(t, *jobSF, opts) {
			e, a, w := r.JoinStateStats()
			entries, c.applied, c.walked = entries+e, c.applied+a, c.walked+w
			st := r.ArrangeStats()
			longest, indexed = max(longest, st.LongestChain), indexed+st.IndexedEntries
		}
		t.Logf("sf %g: %d join entries, %d deltas applied, %d entries walked (%.2f per delta), longest chain %d, %d indexed",
			*jobSF, entries, c.applied, c.walked, float64(c.walked)/float64(c.applied), longest, indexed)
		got = append(got, c)
	})
	if len(got) != 3 {
		return // a regime failed to run and said so
	}
	shipped, all, off := got[0], got[1], got[2]
	if shipped.walked > 8*shipped.applied {
		t.Errorf("walked %d entries for %d deltas at the shipped threshold, want at most 8 per delta", shipped.walked, shipped.applied)
	}
	if all.walked != 0 {
		t.Errorf("walked %d entries with every entry indexed, want 0", all.walked)
	}
	if shipped.walked >= off.walked {
		t.Errorf("walked %d entries at the shipped threshold, %d with the index off: the index never engaged", shipped.walked, off.walked)
	}
}

// TestIndexRegimesOracle reruns the differential oracle's churn and
// arrangement-sharing passes — graft warm-attach, differently paced
// sharers, sharing toggled mid-run — in every regime. Its workloads are
// far too small to cross the shipped threshold on their own.
func TestIndexRegimesOracle(t *testing.T) {
	genOpts := oracle.DefaultOptions()
	genOpts.Churn = true
	opts := oracle.CheckOptions{Churn: true, Arrangements: true, Decompose: true, PaceVectors: 1, Workers: []int{4}}
	exec.IndexRegimes(t, func(t *testing.T) {
		for seed := int64(0); seed < 60; seed++ {
			w := oracle.Generate(seed, genOpts)
			m, err := oracle.Check(w, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if m != nil {
				t.Fatalf("seed %d: engine diverges from oracle: %v", seed, m)
			}
		}
	})
}

// TestIndexRegimesByteIdentical drives the scheduler runtime on a virtual
// clock over the nation-joined TPC-H queries with a 20 % update stream —
// chains of a hundred and more rows, deletes and revives on them — and
// requires the result JSON, metrics snapshot, Chrome trace and event log
// to be the same bytes in every regime.
func TestIndexRegimesByteIdentical(t *testing.T) {
	const sf = 0.02
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName("Q5", "Q7", "Q10")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mqo.Build(bound)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		t.Fatal(err)
	}
	data := tpch.GenerateWithUpdates(sf, 1, 0.2)
	paces := make([]int, len(g.Subplans))
	for i := range paces {
		paces[i] = 4
	}

	var ref []byte
	var longest int32
	exec.IndexRegimes(t, func(t *testing.T) {
		clock := sched.NewVirtualClock(time.Unix(0, 0))
		tr := trace.NewWithClock(clock.Now)
		ev := eventlog.New(nil, 0)
		status := &sched.StatusBoard{}
		s, err := sched.New(g, paces, sched.Slices{Data: data, N: 3}, sched.Config{
			Window: time.Second, Windows: 3, Clock: clock, WorkRate: 50_000,
			Deadlines: make([]time.Duration, len(bound)),
			Workers:   1, Tracer: tr, TraceName: "regimes", Events: ev, Status: status,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(snap)
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ev.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		for q := range bound {
			for _, row := range oracle.Canon(s.Results(q)) {
				buf.WriteString(row)
			}
		}
		if ref == nil {
			ref = buf.Bytes()
			st, _ := status.Current()
			longest = st.Arrangements.LongestChain
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("run output differs from the shipped threshold's (%d vs %d bytes)", buf.Len(), len(ref))
		}
	})
	if longest <= 8 {
		t.Errorf("longest chain %d: the workload never crosses the shipped threshold", longest)
	}
}
