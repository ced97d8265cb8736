package sched

import (
	"encoding/json"
	"net/http"
	"sync"

	"ishare/internal/exec"
)

// QueryStatus is one query's standing in the last closed window.
type QueryStatus struct {
	ID         int     `json:"id"`
	DeadlineMS float64 `json:"deadline_ms"`
	// SlackMS is the query's deadline slack in the last window; negative
	// means the deadline was missed.
	SlackMS float64 `json:"slack_ms"`
	Met     bool    `json:"met"`
}

// SubplanStatus is one row of the statusz drift table.
type SubplanStatus struct {
	ID   int `json:"id"`
	Pace int `json:"pace"`
	// Executions and Work are cumulative over the run.
	Executions int64 `json:"executions"`
	Work       int64 `json:"work"`
	// Drift is the subplan's observed/modeled EWMA (0 when profiling is
	// disabled or no baselined window has been observed).
	Drift float64 `json:"drift"`
}

// Status is the scheduler's live view, published at every window close.
type Status struct {
	// Window is the last closed window; Windows the configured horizon.
	Window  int `json:"window"`
	Windows int `json:"windows"`
	// Paces is the pace vector in force for the next window (degradation
	// taken after the closed window is already applied).
	Paces      []int   `json:"paces"`
	MaxLagMS   float64 `json:"max_lag_ms"`
	Overloaded bool    `json:"overloaded"`
	// Met and Missed are cumulative (query, window) deadline outcomes.
	Met          int               `json:"met"`
	Missed       int               `json:"missed"`
	Queries      []QueryStatus     `json:"queries"`
	Subplans     []SubplanStatus   `json:"subplans"`
	Arrangements exec.ArrangeStats `json:"arrangements"`
	// Reuse is the runner's cumulative window-reuse accounting. Skippable
	// (clean-cone firings) is deterministic; Skipped depends on the
	// exec.Options.NoReuse toggle.
	Reuse exec.ReuseStats `json:"reuse"`
	// Recalibrations counts closed-loop cost recalibrations so far;
	// LastRecalibration is the window the latest one fired in (-1 before
	// any).
	Recalibrations    int `json:"recalibrations"`
	LastRecalibration int `json:"last_recalibration"`
}

// StatusBoard hands the scheduler's latest Status to an HTTP endpoint: the
// scheduler publishes at window close from its accounting loop, the handler
// reads concurrently. The zero value is ready to use.
type StatusBoard struct {
	mu sync.Mutex
	st Status
	ok bool
}

// Publish replaces the board's status.
func (b *StatusBoard) Publish(st Status) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.st = st
	b.ok = true
	b.mu.Unlock()
}

// Current returns the latest published status and whether one exists yet.
func (b *StatusBoard) Current() (Status, bool) {
	if b == nil {
		return Status{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st, b.ok
}

// StatusHandler serves the board as JSON: GET / or /statusz returns the
// latest status, 503 before the first window closes. Any other method gets
// 405.
func StatusHandler(b *StatusBoard) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if req.URL.Path != "/" && req.URL.Path != "/statusz" {
			http.NotFound(w, req)
			return
		}
		st, ok := b.Current()
		if !ok {
			http.Error(w, "no window closed yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			// Best effort; the body may be partially written.
			return
		}
	})
}

// buildStatus assembles the live view for reportWindow once ws's counters
// are published: degradation is applied, the profiler has folded the window
// into its EWMAs.
func (s *Scheduler) buildStatus(ws WindowStats) Status {
	st := Status{
		Window:       ws.Window,
		Windows:      s.cfg.Windows,
		Paces:        append([]int(nil), s.paces...),
		MaxLagMS:     ms(ws.MaxLag),
		Overloaded:   ws.Overloaded,
		Met:          s.res.Met,
		Missed:       s.res.Missed,
		Arrangements: s.runner.ArrangeStats(),
		Reuse:        s.runner.ReuseStats(),
	}
	st.Recalibrations = len(s.res.Recalibrations)
	st.LastRecalibration = -1
	if n := len(s.res.Recalibrations); n > 0 {
		st.LastRecalibration = s.res.Recalibrations[n-1].Window
	}
	st.Queries = make([]QueryStatus, len(ws.QuerySlack))
	for q, slack := range ws.QuerySlack {
		st.Queries[q] = QueryStatus{
			ID:         q,
			DeadlineMS: ms(s.cfg.Deadlines[q]),
			SlackMS:    ms(slack),
			Met:        slack >= 0,
		}
	}
	st.Subplans = make([]SubplanStatus, len(s.paces))
	for i := range s.paces {
		st.Subplans[i] = SubplanStatus{
			ID:         i,
			Pace:       s.paces[i],
			Executions: s.subExecs[i].Value(),
			Work:       s.subWork[i].Value(),
			Drift:      s.cfg.Profile.Drift(i),
		}
	}
	return st
}
