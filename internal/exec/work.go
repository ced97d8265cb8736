// Package exec implements shared incremental execution of the mqo operator
// DAG: SharedDB-style bitvector-annotated tuples flow through stateful
// physical operators (scan, project, symmetric hash join, incremental
// aggregate) in insert/delete delta form; subplans materialize their output
// into buffers consumed at per-parent offsets, except scans, which are views
// over their table logs read through per-consumer cursors; a pace-driven
// runner executes each subplan k times per trigger window and accounts the
// work of every incremental execution.
package exec

import "fmt"

// Work counts simulated work units, the engine's proxy for CPU consumption
// (the paper's "total work" / "final work" are sums of these).
type Work struct {
	// Tuples is the number of input tuples processed by operators.
	Tuples int64
	// State is the number of operator-state updates (hash table inserts
	// and removals, accumulator updates).
	State int64
	// Output is the number of tuples emitted, including buffer
	// materialization.
	Output int64
	// Rescan is the work spent rescanning aggregate state when a MIN/MAX
	// extremum is retracted — the paper's non-incrementable cost (Q15).
	Rescan int64
	// Fixed is the per-execution startup cost: the paper's prototype pays
	// a job-launch overhead for every incremental execution of a subplan
	// (Spark job scheduling plus Kafka round trips, reduced but not
	// eliminated by Drizzle-style techniques), which is what makes overly
	// eager execution expensive independent of data volume.
	Fixed int64
}

// StartupCostPerOp is the modeled fixed work charged per operator per
// incremental execution of a subplan. It is kept small relative to
// per-chunk data work so that latency goals remain reachable at high paces
// (the overhead matters in aggregate across many eager executions, not as a
// per-execution floor).
const StartupCostPerOp = 5

// Total returns the summed work units.
func (w Work) Total() int64 { return w.Tuples + w.State + w.Output + w.Rescan + w.Fixed }

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Tuples += o.Tuples
	w.State += o.State
	w.Output += o.Output
	w.Rescan += o.Rescan
	w.Fixed += o.Fixed
}

// String renders the breakdown.
func (w Work) String() string {
	return fmt.Sprintf("work{t=%d s=%d o=%d r=%d f=%d total=%d}",
		w.Tuples, w.State, w.Output, w.Rescan, w.Fixed, w.Total())
}
