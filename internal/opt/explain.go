package opt

import (
	"math"

	"ishare/internal/cost"
	"ishare/internal/pace"
	"ishare/internal/trace"
)

// BuildExplain assembles the EXPLAIN report for a planned request: the chosen
// pace vector, each subplan's marginal incrementability at the chosen
// configuration, the cost model's memo traffic, and (when req.Trace recorded
// the optimization) the pace-search and decomposition decision logs.
// queryNames and rel may be nil; jobs planned without a Model (e.g. loaded
// plans) get pace rows without cost estimates.
func BuildExplain(p *Planned, req Request, queryNames []string, rel []float64) (*trace.Explain, error) {
	e := &trace.Explain{Approach: p.Approach.String(), Rel: rel}
	if queryNames != nil {
		e.Queries = queryNames
	} else {
		for i := range req.Queries {
			e.Queries = append(e.Queries, req.Queries[i].Name)
		}
	}
	for ji, job := range p.Jobs {
		ej := trace.ExplainJob{Paces: append([]int(nil), job.Paces...)}
		if job.Model != nil {
			if err := explainJobCosts(&ej, job, req, ji, e.Queries); err != nil {
				return nil, err
			}
		} else {
			for _, s := range job.Graph.Subplans {
				ej.Subplans = append(ej.Subplans, trace.ExplainSubplan{
					Job: ji, ID: s.ID, Pace: job.Paces[s.ID],
					Queries:          subplanQueryNames(job, s.Queries.Members(), e.Queries),
					Incrementability: math.NaN(),
				})
			}
		}
		e.Jobs = append(e.Jobs, ej)
	}
	if tr := req.Trace; tr != nil {
		e.PaceDecisions = append(tr.Decisions("pace.greedy"), tr.Decisions("pace.reverse")...)
		e.SplitDecisions = tr.Decisions("decompose")
		e.Counters = tr.Counters()
	}
	return e, nil
}

// explainJobCosts fills one job's cost-model rows: per-subplan estimates and
// the marginal incrementability of raising each subplan's pace by one from
// the chosen configuration (NaN when no legal raise exists).
func explainJobCosts(ej *trace.ExplainJob, job Job, req Request, ji int, names []string) error {
	m := job.Model
	cur, err := m.Evaluate(job.Paces)
	if err != nil {
		return err
	}
	// Constraints seen by this job, in its local query order.
	local := make([]float64, len(job.QueryIDs))
	for li, gi := range job.QueryIDs {
		if gi < len(req.Constraints) {
			local[li] = req.Constraints[gi]
		}
	}
	o, err := pace.NewOptimizer(m, local, maxPaceAtLeast(req.MaxPace, job.Paces))
	if err != nil {
		return err
	}
	for _, s := range job.Graph.Subplans {
		row := trace.ExplainSubplan{
			Job: ji, ID: s.ID, Pace: job.Paces[s.ID],
			Queries:  subplanQueryNames(job, s.Queries.Members(), names),
			EstFinal: cur.SubFinal[s.ID], EstTotal: cur.SubTotal[s.ID],
		}
		row.Incrementability = marginalRaise(o, m, job, s.ID, cur)
		ej.Subplans = append(ej.Subplans, row)
	}
	ej.MemoLookups, ej.MemoHits, ej.Sims = m.Lookups, m.Hits, m.Sims
	if tr := req.Trace; tr != nil {
		ej.Steps = tr.Counter("pace.steps")
		ej.Evals = tr.Counter("pace.evals")
	}
	return nil
}

// marginalRaise scores raising one subplan's pace by one: Equation 2 against
// the chosen configuration, or NaN when the raise is illegal (at MaxPace, or
// it would out-pace a child).
func marginalRaise(o *pace.Optimizer, m *cost.Model, job Job, id int, cur cost.Eval) float64 {
	next := job.Paces[id] + 1
	if next > o.MaxPace {
		return math.NaN()
	}
	for _, c := range job.Graph.Subplans[id].Children {
		if job.Paces[c.ID] < next {
			return math.NaN()
		}
	}
	cand := append([]int(nil), job.Paces...)
	cand[id] = next
	ev, err := m.Evaluate(cand)
	if err != nil {
		return math.NaN()
	}
	return o.Incrementability(ev, cur)
}

// maxPaceAtLeast widens MaxPace to cover plans whose recorded paces exceed
// the request's bound (e.g. loaded from a run with a larger J).
func maxPaceAtLeast(maxPace int, paces []int) int {
	for _, p := range paces {
		if p > maxPace {
			maxPace = p
		}
	}
	return maxPace
}

func subplanQueryNames(job Job, locals []int, names []string) []string {
	out := make([]string, 0, len(locals))
	for _, li := range locals {
		gi := li
		if li < len(job.QueryIDs) {
			gi = job.QueryIDs[li]
		}
		if gi < len(names) {
			out = append(out, names[gi])
		}
	}
	return out
}
