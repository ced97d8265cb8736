package exec_test

// Chunking golden: how many vectorized chunks every subplan's operators read,
// per execution and in total, for the 22-query TPC-H job at two chunk sizes
// and for a TPC-H churn schedule with grafts. Chunk counts are physical — they
// move with Options.Batch and with how operators hand rows to each other —
// so a change to the executor's data flow that must leave every consumer's
// chunks as they were is held to this file.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

var updateChunks = flag.Bool("update-chunks", false, "rewrite testdata/chunks_golden.txt")

const chunksGolden = "testdata/chunks_golden.txt"

// TestGoldenChunks compares the chunk counts of the job and the churn
// schedule with testdata/chunks_golden.txt (regenerate with
// -update-chunks only for an intended change).
func TestGoldenChunks(t *testing.T) {
	var b bytes.Buffer
	for _, batch := range []int{7, 0} {
		fmt.Fprintf(&b, "job batch=%d\n", batch)
		chunksJob(t, &b, batch)
	}
	fmt.Fprintf(&b, "churn batch=0\n")
	chunksChurn(t, &b)
	if *updateChunks {
		if err := os.MkdirAll(filepath.Dir(chunksGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chunksGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chunksGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-chunks to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("chunk counts differ from %s:\n%s", chunksGolden, firstDiff(b.String(), string(want)))
	}
}

// firstDiff returns the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}

// chunkLog records each subplan's per-execution chunk counts.
type chunkLog map[int][]int64

// fire runs one window's firing sequence on r firing by firing, recording
// every execution's LastBatches.
func (l chunkLog) fire(t *testing.T, r *exec.Runner, paces []int) {
	t.Helper()
	fs, err := exec.Schedule(paces)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		r.ArriveWindow(f.Index, f.Pace)
		if _, err := r.RunGroup([]exec.Firing{f}, 1, "exec", nil); err != nil {
			t.Fatal(err)
		}
		l[f.Subplan] = append(l[f.Subplan], r.Execs[f.Subplan].LastBatches())
	}
}

// write prints one line per subplan: its cumulative Batches and the chunks
// of each execution recorded since the last write.
func (l chunkLog) write(b *bytes.Buffer, r *exec.Runner) {
	for id, se := range r.Execs {
		fmt.Fprintf(b, "  s%d total=%d runs=%v\n", id, se.Batches(), l[id])
		delete(l, id)
	}
}

// chunksJob runs the repository benchmark's job shape — the 22 queries at
// rotating constraint levels, planned by opt.Plan(IShare) — at sf 0.5.
func chunksJob(t *testing.T, b *bytes.Buffer, batch int) {
	t.Helper()
	const sf = 0.5
	data := exec.InsertStream(tpch.Generate(sf, 1))
	for j, pj := range planJob(t, sf) {
		r, err := exec.New(pj.Graph, data, exec.Options{Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		l := chunkLog{}
		l.fire(t, r, pj.Paces)
		fmt.Fprintf(b, " job %d paces=%v\n", j, pj.Paces)
		l.write(b, r)
	}
}

// chunksChurn serves TPC-H queries over four windows of a 20%-update
// stream, admitting and retiring queries between windows by grafts, with
// every subplan at a pace of 1 to 3 by id.
func chunksChurn(t *testing.T, b *bytes.Buffer) {
	t.Helper()
	const sf, windows = 0.5, 4
	cat, err := tpch.NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tpch.ByName("Q1", "Q3", "Q5", "Q10", "Q15", "Q18")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	// Each window's plan serves the queries marked in its row; an
	// unmarked slot is an empty query, so slots keep their ids.
	serve := [windows][]bool{
		{true, true, false, true, false, false},
		{true, true, true, true, false, true},
		{true, false, true, true, true, true},
		{true, false, true, false, true, true},
	}
	graph := func(k int) *mqo.Graph {
		qk := make([]plan.Query, len(bound))
		for q := range bound {
			if serve[k][q] {
				qk[q] = bound[q]
			}
		}
		sp, err := mqo.Build(qk)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	data := tpch.GenerateWithUpdates(sf, 2, 0.2)
	window := func(k int) exec.DeltaDataset {
		ds := exec.DeltaDataset{}
		for name, ts := range data {
			ds[name] = ts[len(ts)*k/windows : len(ts)*(k+1)/windows]
		}
		return ds
	}
	g := graph(0)
	r, err := exec.New(g, exec.DeltaDataset{}, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := chunkLog{}
	for k := 0; k < windows; k++ {
		if k > 0 {
			g = graph(k)
			gs, err := r.Graft(g, exec.GraftOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(b, " graft %d adopted=%d replayed=%d\n", k, gs.Adopted, gs.Replayed)
			l.write(b, r)
		}
		r.StartWindow(window(k))
		paces := make([]int, len(g.Subplans))
		for i := range paces {
			paces[i] = 1 + i%3
		}
		l.fire(t, r, paces)
		fmt.Fprintf(b, " window %d\n", k)
		l.write(b, r)
	}
}
