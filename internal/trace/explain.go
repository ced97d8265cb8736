package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// ExplainSubplan is one subplan's row in the EXPLAIN report.
type ExplainSubplan struct {
	Job, ID, Pace int
	// Queries names the queries sharing the subplan.
	Queries []string
	// Incrementability is the marginal incrementability of raising the
	// subplan's pace by one from the chosen configuration (+Inf means a
	// strictly dominating raise; NaN means no legal raise exists — the pace
	// is at MaxPace or bounded by a child).
	Incrementability float64
	// EstFinal and EstTotal are the cost model's private final and total
	// work estimates under the chosen configuration.
	EstFinal, EstTotal float64
}

// ExplainJob summarizes one executable job of the plan.
type ExplainJob struct {
	Paces    []int
	Subplans []ExplainSubplan
	// MemoLookups, MemoHits and Sims are the job's cost-model traffic:
	// lookups count only the subplans an evaluation re-costed, not the ones
	// it took unchanged from the search's incumbent. Steps and Evals are
	// the pace-search effort.
	MemoLookups, MemoHits, Sims int64
	Steps, Evals                int64
}

// Explain is the assembled EXPLAIN report: what the optimizer chose and why.
// It is built by internal/opt from a Planned result plus the tracer's
// decision log, and rendered with Write.
type Explain struct {
	Approach string
	// Queries and Rel name each query and its relative constraint (Rel may
	// be nil when only absolute constraints are known).
	Queries []string
	Rel     []float64
	Jobs    []ExplainJob
	// PaceDecisions and SplitDecisions are the optimizer's decision logs
	// (phases pace.* and decompose).
	PaceDecisions  []Decision
	SplitDecisions []Decision
	// Counters is the tracer's counter snapshot.
	Counters map[string]int64
}

// Write renders the report as indented text.
func (e *Explain) Write(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN — approach %s\n", e.Approach)
	for i, q := range e.Queries {
		if e.Rel != nil && i < len(e.Rel) {
			fmt.Fprintf(w, "  query %d: %s (relative constraint %.2f)\n", i, q, e.Rel[i])
		} else {
			fmt.Fprintf(w, "  query %d: %s\n", i, q)
		}
	}
	for ji, job := range e.Jobs {
		fmt.Fprintf(w, "job %d: pace vector %v\n", ji, job.Paces)
		fmt.Fprintf(w, "  %-8s %-5s %-24s %16s %12s %12s\n",
			"subplan", "pace", "queries", "incrementability", "est final", "est total")
		for _, s := range job.Subplans {
			fmt.Fprintf(w, "  %-8d %-5d %-24s %16s %12.1f %12.1f\n",
				s.ID, s.Pace, strings.Join(s.Queries, ","), incString(s.Incrementability),
				s.EstFinal, s.EstTotal)
		}
		hitRate := 0.0
		if job.MemoLookups > 0 {
			hitRate = float64(job.MemoHits) / float64(job.MemoLookups)
		}
		fmt.Fprintf(w, "  memoization: %d subplans re-costed (unchanged ones are taken from the incumbent unasked), %d memo hits (%.1f%%), %d simulations\n",
			job.MemoLookups, job.MemoHits, 100*hitRate, job.Sims)
		fmt.Fprintf(w, "  pace search: %d steps, %d cost evaluations\n", job.Steps, job.Evals)
	}
	if len(e.SplitDecisions) > 0 {
		fmt.Fprintf(w, "decomposition rationale:\n")
		for _, d := range e.SplitDecisions {
			fmt.Fprintf(w, "  %s\n", d.String())
		}
	}
	if len(e.PaceDecisions) > 0 {
		fmt.Fprintf(w, "pace-search decision log (%d steps):\n", len(e.PaceDecisions))
		for _, d := range e.PaceDecisions {
			fmt.Fprintf(w, "  %s\n", d.String())
		}
	}
}

// String renders a decision on one line.
func (d Decision) String() string {
	verdict := "rejected"
	if d.Accepted {
		verdict = "accepted"
	}
	s := fmt.Sprintf("[%s #%d] %s subplan %d (score %s): %s",
		d.Phase, d.Step, d.Action, d.Subplan, incString(d.Score), verdict)
	if d.Detail != "" {
		s += " — " + d.Detail
	}
	if len(d.Candidates) > 0 {
		s += " [considered " + candString(d.Candidates) + "]"
	}
	return s
}

// incString renders an incrementability score, including the +Inf
// (strictly-dominating) and NaN (no legal raise) cases.
func incString(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "+inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
