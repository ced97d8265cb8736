package main

import (
	"ishare/internal/delta"
	"ishare/internal/exec"
)

// layerAcc collects the per-layer figures of a traced run: sums that grow
// with every operation (reported per operation, or as a ratio of two sums)
// and values measured once. A nil *layerAcc — the untraced run — drops
// everything.
type layerAcc struct {
	sum, val map[string]float64
}

type layers = *layerAcc

func newLayers() layers {
	return &layerAcc{sum: map[string]float64{}, val: map[string]float64{}}
}

func (l *layerAcc) add(name string, v float64) {
	if l != nil {
		l.sum[name] += v
	}
}

func (l *layerAcc) set(name string, v float64) {
	if l != nil {
		l.val[name] = v
	}
}

// settle reports a sum as one value, divided by n, instead of per operation.
func (l *layerAcc) settle(name string, n float64) {
	l.val[name] = ratio(l.sum[name], n)
	delete(l.sum, name)
}

// addRunner reads an executor's exported counters after it has run.
func (l *layerAcc) addRunner(r *exec.Runner, paces []int) {
	if l == nil {
		return
	}
	for _, p := range paces {
		l.add("exec.firings", float64(p))
	}
	l.addRunnerState(r)
}

// addRunnerState reads the counters that describe what an executor holds and
// has consumed, whoever scheduled its firings.
func (l *layerAcc) addRunnerState(r *exec.Runner) {
	if l == nil {
		return
	}
	scanned := map[string]bool{}
	for _, s := range r.Graph.Subplans {
		for _, o := range s.Scans() {
			scanned[o.Table.Name] = true
		}
		if log, err := r.SubplanLog(s); err == nil {
			l.add("buffer.log_entries_end", float64(log.Len()))
		}
	}
	for name := range scanned {
		if log, err := r.TableLog(name); err == nil {
			l.add("buffer.log_entries_end", float64(log.Len()))
		}
		for _, t := range r.Data[name] {
			l.add("exec.rows_in", 1)
			if t.Sign == delta.Delete {
				l.add("exec.deletes", 1)
			}
		}
	}
	for q := range r.Graph.QueryRootSubplan {
		l.add("exec.rows_out", float64(len(r.Results(q))))
	}
	arr := r.ArrangeStats()
	l.add("exec.arr_built", float64(arr.Built))
	l.add("exec.arr_shared_attaches", float64(arr.SharedAttaches))
	l.add("exec.arr_entries_end", float64(arr.Entries))
	l.add("exec.reuse_skipped", float64(r.ReuseStats().Skipped))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns the accumulated sums into the reported per-layer metrics:
// ratios of two sums, and everything else per operation.
func (l *layerAcc) finish(ops int, totalWork int64) map[string]float64 {
	s := l.sum
	out := map[string]float64{
		"cost.memo_hit_ratio":      ratio(s["cost.memo_hits"], s["cost.memo_lookups"]),
		"opt.goal_miss_frac":       ratio(s["opt.goal_misses"], s["opt.goals"]),
		"opt.est_total_ratio":      ratio(s["opt.est_total"], float64(totalWork)),
		"exec.ns_per_row":          ratio(s["exec.run_ms"]*1e6, s["exec.rows_in"]),
		"exec.ns_per_work_unit":    ratio(s["exec.run_ms"]*1e6, float64(totalWork)),
		"exec.delete_frac":         ratio(s["exec.deletes"], s["exec.rows_in"]),
		"exec.arr_shared_ratio":    ratio(s["exec.arr_shared_attaches"], s["exec.arr_built"]+s["exec.arr_shared_attaches"]),
		"exec.reuse_skip_ratio":    ratio(s["exec.reuse_skipped"], s["exec.firings"]),
		"exec.graft_adopted_ratio": ratio(s["exec.graft_adopted"], s["exec.graft_adopted"]+s["exec.graft_rebuilt"]),
	}
	for name, v := range s {
		if _, derived := out[name]; !derived {
			out[name] = v / float64(ops)
		}
	}
	for name, v := range l.val {
		out[name] = v
	}
	return out
}
