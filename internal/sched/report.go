package sched

import (
	"cmp"
	"fmt"
	"time"

	"ishare/internal/exec"
	"ishare/internal/profile"
	"ishare/internal/trace"
)

// How an observation leaves the scheduler: the accounting loop (runGroup,
// closeWindow, Graft) only records, and one report per occasion — a firing
// group ran, a window closed, a graft landed — is the only code in the
// package that writes a metric, span, decision, event or status. Every
// report runs on the canonical accounting path, so on a VirtualClock its
// output is byte-identical at any Workers setting.

// firing is the accounting loop's record of one incremental execution, with
// offsets from the run epoch.
type firing struct {
	exec.Firing
	due, start, finish time.Duration
	work               exec.Work
}

// ms converts a duration to float milliseconds, the unit of the lag and
// slack metrics.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportStart resolves the run-wide instruments — up front, so reportGroup
// pays atomic adds, not a registry lookup — and registers the run's tracer
// process and tracks. New calls it.
func (s *Scheduler) reportStart() {
	s.execs = s.cfg.Metrics.Counter("sched.executions")
	s.workTotal = s.cfg.Metrics.Counter("sched.work_total")
	s.lagHist = s.cfg.Metrics.Histogram("sched.exec_lag_ms", 1, 5, 10, 50, 100, 500, 1000, 5000)
	s.slackHist = s.cfg.Metrics.Histogram("sched.query_slack_ms", -5000, -1000, -100, -10, 0, 10, 100, 1000, 5000)
	if tr := s.cfg.Tracer; tr != nil {
		s.tracePid = tr.Process(cmp.Or(s.cfg.TraceName, "sched"))
		s.traceBase = tr.Since()
		tr.Thread(s.tracePid, 0, "windows")
	}
	s.reportSubplans()
}

// reportSubplans resolves the current graph's per-subplan counters and
// tracer tracks. Counters are registry-backed by name and named by subplan
// id, so after a graft an id keeps accumulating into the same counter even
// when the graft renumbered it onto another subplan.
func (s *Scheduler) reportSubplans() {
	s.subExecs, s.subWork = s.subExecs[:0], s.subWork[:0]
	for i, sub := range s.runner.Graph.Subplans {
		s.subExecs = append(s.subExecs, s.cfg.Metrics.Counter(fmt.Sprintf("sched.subplan.%d.executions", i)))
		s.subWork = append(s.subWork, s.cfg.Metrics.Counter(fmt.Sprintf("sched.subplan.%d.work", i)))
		if tr := s.cfg.Tracer; tr != nil {
			tr.Thread(s.tracePid, 1+sub.ID, fmt.Sprintf("subplan %d", sub.ID))
		}
	}
}

// reportGroup publishes one firing group's records. It runs once per group,
// so a metrics snapshot taken between two Ticks includes every firing so far.
func (s *Scheduler) reportGroup(fs []firing) {
	tr := s.cfg.Tracer
	for _, f := range fs {
		w := f.work.Total()
		s.execs.Inc()
		s.workTotal.Add(w)
		s.lagHist.Observe(ms(f.start - f.due))
		if tr != nil {
			tr.Count("exec.executions", 1)
			tr.Count("exec.tuples", f.work.Tuples)
			tr.Count("exec.state", f.work.State)
			tr.Count("exec.output", f.work.Output)
			if f.work.Rescan > 0 {
				tr.Count("exec.rescans", 1)
				tr.Count("exec.rescan_work", f.work.Rescan)
			}
			tr.Span(s.tracePid, 1+f.Subplan, "sched", fmt.Sprintf("fire %d/%d", f.Index, f.Pace),
				s.traceBase+f.start, s.traceBase+f.finish,
				trace.Arg{Key: "window", Value: s.window},
				trace.Arg{Key: "due", Value: f.due},
				trace.Arg{Key: "work", Value: w})
		}
	}
}

// reportWindow publishes the window closeWindow settled into ws, with the
// drift alerts the profiler raised at its close: per-subplan totals summed
// from the window's records, deadline and overload accounting, the
// degradation or recalibration taken, the runner's arrangement and reuse
// deltas, and the status view. After the run's last window it also publishes
// the runner's end-state arrangement gauges to the tracer.
func (s *Scheduler) reportWindow(ws WindowStats, alerts []profile.Alert) {
	for _, f := range s.fired {
		s.subExecs[f.Subplan].Inc()
		s.subWork[f.Subplan].Add(f.work.Total())
	}
	for _, slack := range ws.QuerySlack {
		s.slackHist.Observe(ms(slack))
	}
	s.cfg.Metrics.Counter("sched.windows").Inc()
	s.cfg.Metrics.Counter("sched.deadline_met").Add(int64(ws.Met))
	s.cfg.Metrics.Counter("sched.deadline_missed").Add(int64(ws.Missed))
	if ws.Overloaded {
		s.cfg.Metrics.Counter("sched.overloaded_windows").Inc()
	}
	d, rec := ws.Degraded, ws.Recalibrated
	if d != nil {
		s.cfg.Metrics.Counter("sched.degrade_total").Inc()
		s.cfg.Metrics.Counter(fmt.Sprintf("sched.degrade.subplan.%d", d.Subplan)).Inc()
	}
	if rec != nil {
		s.cfg.Metrics.Counter("sched.recalibrations").Inc()
		s.cfg.Metrics.Gauge("sched.last_recalibration_window").Set(float64(rec.Window))
	}
	// Always-on gauges: set in observed and unobserved runs alike, so
	// attaching a surface never changes a metrics snapshot.
	s.cfg.Metrics.Gauge("sched.window").Set(float64(ws.Window))
	s.cfg.Metrics.Gauge("sched.live_queries").Set(float64(len(ws.QuerySlack)))
	s.cfg.Metrics.Gauge("sched.last_max_lag_ms").Set(ms(ws.MaxLag))
	arr, reuse := s.reportRunnerDeltas()

	winEnd := s.winStart.Add(s.cfg.Window)
	if tr := s.cfg.Tracer; tr != nil {
		at := s.traceBase + winEnd.Sub(s.epoch)
		for q, slack := range ws.QuerySlack {
			// The query completed at trigger point + goal − slack.
			tr.Instant(s.tracePid, 0, "deadline", fmt.Sprintf("query %d", q),
				s.traceBase+winEnd.Add(s.cfg.Deadlines[q]-slack).Sub(s.epoch),
				trace.Arg{Key: "window", Value: ws.Window},
				trace.Arg{Key: "slack", Value: slack},
				trace.Arg{Key: "met", Value: slack >= 0})
		}
		tr.Span(s.tracePid, 0, "sched", fmt.Sprintf("window %d", ws.Window),
			s.traceBase+s.winStart.Sub(s.epoch), at,
			trace.Arg{Key: "executions", Value: ws.Executions},
			trace.Arg{Key: "work", Value: ws.Work},
			trace.Arg{Key: "met", Value: ws.Met},
			trace.Arg{Key: "missed", Value: ws.Missed},
			trace.Arg{Key: "max_lag", Value: ws.MaxLag},
			trace.Arg{Key: "overloaded", Value: ws.Overloaded})
		if d != nil {
			tr.DecideAt(s.tracePid, 0, at, trace.Decision{
				Phase: "sched.degrade", Step: len(s.res.Decisions),
				Subplan: d.Subplan, Action: "halve_pace", Score: ms(d.Spent), Accepted: true,
				Detail: fmt.Sprintf("window %d overloaded: pace %d -> %d, %d ancestors clamped",
					d.Window, d.OldPace, d.NewPace, len(d.Clamped)),
			})
		}
		if rec != nil {
			tr.DecideAt(s.tracePid, 0, at, trace.Decision{
				Phase: "sched.recalibrate", Step: len(s.res.Recalibrations),
				Subplan: rec.Subplans[0], Action: "recalibrate", Score: rec.Drifts[0], Accepted: true,
				Detail: fmt.Sprintf("window %d: %d subplans drifted, paces %v -> %v (%d memo entries adopted, %d evals)",
					rec.Window, len(rec.Subplans), rec.OldPaces, rec.NewPaces, rec.Adopted, rec.Evals),
			})
		}
		if ws.Window == s.cfg.Windows-1 {
			// End-state gauges, not deltas: published once per run.
			st := s.runner.ArrangeStats()
			tr.Count("exec.arr.live", int64(st.Live))
			tr.Count("exec.arr.handles", int64(st.Handles))
			tr.Count("exec.arr.multiuse", int64(st.MultiUse))
			tr.Count("exec.arr.entries", st.Entries)
			tr.Count("exec.arr.built", st.Built)
			tr.Count("exec.arr.shared_attaches", st.SharedAttaches)
		}
	}

	if ev := s.cfg.Events; ev.Enabled() {
		atNS := winEnd.Sub(s.epoch).Nanoseconds()
		for _, a := range alerts {
			ev.Emit("drift.alert", atNS, a.Window, a.Subplan, -1, map[string]interface{}{
				"drift": a.Drift, "modeled": a.Modeled, "work": a.Work,
			})
		}
		if d != nil {
			ev.Emit("sched.degrade", atNS, ws.Window, d.Subplan, -1, map[string]interface{}{
				"old_pace": d.OldPace, "new_pace": d.NewPace,
				"clamped": len(d.Clamped), "spent_ns": int64(d.Spent),
			})
		}
		if rec != nil {
			for i, id := range rec.Subplans {
				ev.Emit("cost.recalibrate", atNS, rec.Window, id, -1, map[string]interface{}{
					"drift": rec.Drifts[i],
				})
			}
			ev.Emit("pace.research", atNS, rec.Window, -1, -1, map[string]interface{}{
				"adopted": rec.Adopted, "steps": rec.Steps, "evals": rec.Evals,
				"old_paces": fmt.Sprint(rec.OldPaces), "new_paces": fmt.Sprint(rec.NewPaces),
			})
		}
		if arr.Built != 0 || arr.SharedAttaches != 0 || arr.Freed != 0 {
			ev.Emit("arrangements", atNS, ws.Window, -1, -1, map[string]interface{}{
				"built": arr.Built, "shared_attaches": arr.SharedAttaches, "freed": arr.Freed,
			})
		}
		if reuse.Skippable > 0 {
			// Only the deterministic skippable count goes on the log: the
			// physical skipped count depends on exec.Options.NoReuse, and
			// the event log must stay byte-identical with reuse on or off.
			ev.Emit("reuse.skip", atNS, ws.Window, -1, -1, map[string]interface{}{
				"skippable": reuse.Skippable,
			})
		}
		ev.Emit("window.close", atNS, ws.Window, -1, -1, map[string]interface{}{
			"executions": ws.Executions, "work": ws.Work,
			"met": ws.Met, "missed": ws.Missed,
			"max_lag_ns": int64(ws.MaxLag), "overloaded": ws.Overloaded,
		})
	}

	if b := s.cfg.Status; b != nil {
		b.Publish(s.buildStatus(ws))
	}
}

// reportGraft publishes a graft onto the scheduler's (new) graph: the
// runner's arrangement and reuse deltas, the graft event, and the new
// graph's per-subplan counters and tracer tracks.
func (s *Scheduler) reportGraft(stats *exec.GraftStats) {
	arr, _ := s.reportRunnerDeltas()
	if ev := s.cfg.Events; ev.Enabled() {
		atNS := (time.Duration(s.window) * s.cfg.Window).Nanoseconds()
		ev.Emit("graft", atNS, s.window, -1, -1, map[string]interface{}{
			"subplans": len(s.runner.Graph.Subplans), "queries": s.runner.Graph.Plan.NumQueries(),
			"adopted": stats.Adopted, "rebuilt": stats.Rebuilt,
			"replayed":            stats.Replayed,
			"arrangements_built":  arr.Built,
			"arrangements_shared": stats.ArrangementsShared,
			"arrangements_freed":  stats.ArrangementsFreed,
		})
	}
	s.reportSubplans()
}

// reportRunnerDeltas publishes the runner's lifetime arrangement and reuse
// counters as deltas since the last report, so each window's metrics
// describe that window, and returns the deltas. The skippable reuse column
// (clean-cone firings, counted whether or not the knob is on) is
// deterministic; skipped is the physical count and depends on the knob.
func (s *Scheduler) reportRunnerDeltas() (exec.ArrangeStats, exec.ReuseStats) {
	st, ru := s.runner.ArrangeStats(), s.runner.ReuseStats()
	arr := exec.ArrangeStats{
		Built:          st.Built - s.lastArr.Built,
		SharedAttaches: st.SharedAttaches - s.lastArr.SharedAttaches,
		Freed:          st.Freed - s.lastArr.Freed,
	}
	reuse := exec.ReuseStats{
		Skippable: ru.Skippable - s.lastReuse.Skippable,
		Skipped:   ru.Skipped - s.lastReuse.Skipped,
	}
	s.lastArr, s.lastReuse = st, ru
	s.cfg.Metrics.Counter("exec.arrangements.built").Add(arr.Built)
	s.cfg.Metrics.Counter("exec.arrangements.shared_attaches").Add(arr.SharedAttaches)
	s.cfg.Metrics.Counter("exec.arrangements.freed").Add(arr.Freed)
	if reuse.Skippable > 0 {
		s.cfg.Metrics.Counter("exec.reuse.skippable").Add(reuse.Skippable)
	}
	if reuse.Skipped > 0 {
		s.cfg.Metrics.Counter("exec.reuse.skipped").Add(reuse.Skipped)
	}
	return arr, reuse
}
