package exec

import (
	"slices"
	"sort"
	"sync/atomic"
)

// This file implements window-level result reuse: when none of the current
// trigger window's arrivals touch a subplan's scan cone — the base tables
// reachable through its own scans or any descendant subplan's — every firing
// of that subplan this window is a provable no-op. Its input readers are
// fully caught up at the window boundary (each firing drains them, and a
// clean cone means neither the table logs nor any child buffer grew), so a
// real execution would read empty inputs, emit nothing, touch no operator
// state and charge only the fixed startup cost. The reuse gate skips the
// firing entirely — no operator walk, no chunk iteration, no shared-
// arrangement maintenance — while charging exactly that same modeled Work,
// so results, work reports, golden traces and event logs are bit-identical
// with reuse on, off, or toggled mid-churn.

// ReuseStats is the runner's lifetime reuse accounting.
type ReuseStats struct {
	// Skippable counts firings whose scan cone was clean — counted whether
	// or not the gate actually skipped, so the number is identical with
	// reuse on or off and safe to emit into the deterministic event log.
	Skippable int64
	// Skipped counts firings the gate actually elided; at most Skippable,
	// and zero with reuse off. Physical accounting only (statusz/metrics):
	// it varies with the knob by construction.
	Skipped int64
}

// ReuseStats returns the lifetime reuse counters. Safe to call between
// windows or after a run; counter adds commute, so concurrent wave execution
// leaves the totals deterministic.
func (r *Runner) ReuseStats() ReuseStats {
	return ReuseStats{
		Skippable: atomic.LoadInt64(&r.reuseSkippable),
		Skipped:   atomic.LoadInt64(&r.reuseSkipped),
	}
}

// computeLineage records, per subplan, the sorted base tables of its scan
// cone: its own scans plus every descendant's. Children-first subplan order
// means each child's cone is complete before any parent unions it in.
func (r *Runner) computeLineage() {
	r.lineage = make([][]string, len(r.Graph.Subplans))
	for _, s := range r.Graph.Subplans {
		seen := make(map[string]bool)
		for _, o := range s.Scans() {
			seen[o.Table.Name] = true
		}
		for _, c := range s.Children {
			for _, name := range r.lineage[c.ID] {
				seen[name] = true
			}
		}
		cone := make([]string, 0, len(seen))
		for name := range seen {
			cone = append(cone, name)
		}
		sort.Strings(cone)
		r.lineage[s.ID] = cone
	}
}

// computeWinClean refreshes the per-subplan clean flags for the current
// window: a subplan is clean iff no table in its scan cone has arrivals in
// it. Called whenever a window's arrivals are staged (the construction
// dataset's included); a Graft instead starts every subplan dirty (fresh
// all-false flags) until the next boundary.
func (r *Runner) computeWinClean() {
	if len(r.winClean) != len(r.Graph.Subplans) {
		r.winClean = make([]bool, len(r.Graph.Subplans))
	}
	for i, cone := range r.lineage {
		r.winClean[i] = !slices.ContainsFunc(cone, func(name string) bool { return r.arrivals[name] > 0 })
	}
}

// runOnce is the reuse gate every scheduled firing goes through (RunGroup
// and RunSubplan; graft replay calls SubplanExec.RunOnce directly and is
// never gated). A clean-cone firing counts as skippable either way; with
// reuse on it is elided via skipOnce.
func (r *Runner) runOnce(id int) Work {
	if r.winClean[id] {
		atomic.AddInt64(&r.reuseSkippable, 1)
		if !r.opts.NoReuse {
			atomic.AddInt64(&r.reuseSkipped, 1)
			return r.Execs[id].skipOnce()
		}
	}
	return r.Execs[id].RunOnce()
}

// skipOnce records one elided firing. It charges exactly the Work a real
// execution over empty inputs would: no tuples, state, output or rescans —
// only the per-operator fixed startup cost (plus any injected slowdown) —
// with zero chunks iterated, nothing appended to Out, and the input readers
// untouched (they are already fully caught up; that is what made the skip
// provable).
func (se *SubplanExec) skipOnce() Work {
	w := Work{Fixed: StartupCostPerOp * int64(len(se.Sub.Ops))}
	if DebugSlowSubplan != nil {
		w.Fixed += DebugSlowSubplan(se.Sub.ID)
	}
	se.lastBatches = 0
	se.record(w)
	return w
}
