package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ishare/internal/trace"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	Name, Layer string
	Start, End  time.Duration // offsets from the recorder's epoch
	Parent      int           // index of the enclosing span, -1 for a root
	Job         int           // the operation the span belongs to
}

// recorder keeps spans in memory; nothing is written until the run ends. A
// nil recorder records nothing, so the untraced run pays one pointer check
// per stage. All spans come from the benchmark's own goroutine, so the open
// spans form a stack.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	job   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setJob names the operation that spans recorded from now on belong to; -1
// marks probes, which belong to none.
func (r *recorder) setJob(id int) {
	if r != nil {
		r.job = id
	}
}

// do runs f inside a span of the given layer.
func (r *recorder) do(layer, name string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Job: r.job})
	r.open = append(r.open, id)
	r.spans[id].Start = time.Since(r.epoch)
	f()
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// attribute adds a child of the open span whose duration was measured by the
// layer itself (an exported counter read after the call), not timed by the
// benchmark: the one way to split a span whose callee the benchmark cannot
// wrap. It is placed at the start of its parent.
func (r *recorder) attribute(layer, name string, d time.Duration) {
	parent := r.open[len(r.open)-1]
	start := r.spans[parent].Start
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: start, End: start + d, Parent: parent, Job: r.job})
}

// doMs is do, returning the span's duration in milliseconds.
func (r *recorder) doMs(layer, name string, f func()) float64 {
	t0 := time.Now()
	r.do(layer, name, f)
	return ms(time.Since(t0))
}

// selfTimes returns each layer's self time — span durations minus the part
// their child spans cover — summed over spans for which keep returns true
// (nil keeps all), and the total of those sums.
func (r *recorder) selfTimes(keep func(span) bool) (map[string]time.Duration, time.Duration) {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for i, s := range r.spans {
		if keep == nil || keep(s) {
			byLayer[s.Layer] += self[i]
			total += self[i]
		}
	}
	return byLayer, total
}

// inJob keeps spans that belong to a timed operation; probes run outside
// any operation with job id -1.
func inJob(s span) bool { return s.Job >= 0 }

// writeLayerTable prints per-layer self time over the timed operations.
func (r *recorder) writeLayerTable(w io.Writer) {
	byLayer, total := r.selfTimes(inJob)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "%-12s %12s %8s\n", "layer", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %12.1f %7.1f%%\n", l, ms(byLayer[l]), 100*float64(byLayer[l])/float64(total))
	}
}

// writeChrome exports the spans through the engine's own tracer, so the file
// has the same Chrome trace-event shape as every other export in the repo:
// one process per workload, one track per nesting depth.
func (r *recorder) writeChrome(dir, workload string) (string, error) {
	tr := trace.New()
	pid := tr.Process("bench " + workload)
	depth := make([]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		tr.Thread(pid, depth[i], fmt.Sprintf("depth %d", depth[i]))
		tr.Span(pid, depth[i], s.Layer, s.Name, s.Start, s.End,
			trace.Arg{Key: "job", Value: s.Job},
			trace.Arg{Key: "parent", Value: s.Parent},
			trace.Arg{Key: "span", Value: i})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
