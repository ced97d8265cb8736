// Package cost implements the analytic cost model behind iShare's
// optimizer: it simulates the incremental executions of each subplan for a
// given pace, mirroring the execution engine's work accounting (tuples
// processed, state updates, outputs materialized, and MIN/MAX rescans on
// extremum retraction), and estimates output cardinalities that feed parent
// subplans. Evaluating a full pace configuration composes per-subplan
// simulations bottom-up, with the memo-table reuse of the paper's
// Algorithm 1.
package cost

import (
	"math"

	"ishare/internal/catalog"
	"ishare/internal/expr"
	"ishare/internal/mqo"
)

// Profile describes the tuple stream entering or leaving a subplan over one
// trigger window.
type Profile struct {
	// Gross is the total number of delta tuples (inserts plus deletes) —
	// the work driver.
	Gross float64
	// Net is the number of net rows after deletes cancel inserts — the
	// state-size driver. In per-execution chunks Net is the increment of
	// net rows contributed by that execution; operators accumulate
	// increments into state levels.
	Net float64
	// DeleteShare is the fraction of Gross that are deletions.
	DeleteShare float64
	// Queries is the set of queries PerQuery has an entry for.
	Queries mqo.Bitset
	// PerQuery holds the gross tuples valid for each member of Queries,
	// densely in ascending query order: PerQuery[i] belongs to the i-th
	// smallest member.
	PerQuery []float64
	// Cols carries per-column statistics for selectivity and distinct
	// estimation.
	Cols []catalog.ColumnStats
}

// grossFor returns the gross tuples valid for query q. A query the profile
// has no entry for sees the whole stream.
func (p Profile) grossFor(q int) float64 {
	if p.Queries.Has(q) {
		return p.PerQuery[p.Queries.Intersect(mqo.Bit(q)-1).Count()]
	}
	return p.Gross
}

// TableProfile derives the arrival profile of a base table from catalog
// statistics: RowCount insert tuples valid for every query.
func TableProfile(t *catalog.Table, queries mqo.Bitset) Profile {
	p := Profile{
		Gross:    t.Stats.RowCount,
		Net:      t.Stats.RowCount,
		Queries:  queries,
		PerQuery: make([]float64, queries.Count()),
		Cols:     make([]catalog.ColumnStats, len(t.Columns)),
	}
	for i, c := range t.Columns {
		if st, ok := t.Stats.Columns[c.Name]; ok {
			p.Cols[i] = st
		} else {
			p.Cols[i] = catalog.ColumnStats{Distinct: t.Stats.RowCount}
		}
	}
	for i := range p.PerQuery {
		p.PerQuery[i] = t.Stats.RowCount
	}
	return p
}

// colStats adapts a profile's column statistics to the expr.StatsProvider
// interface. The methods are on the pointer so that a long-lived value (the
// simulation arena's) converts to the interface without allocating.
type colStats struct {
	cols []catalog.ColumnStats
}

func (c *colStats) ColumnStats(i int) (catalog.ColumnStats, bool) {
	if i < 0 || i >= len(c.cols) {
		return catalog.ColumnStats{}, false
	}
	s := c.cols[i]
	if s.Distinct <= 0 {
		return s, false
	}
	return s, true
}

// distinctOf estimates the number of distinct values of an expression over a
// stream with the given column statistics. Non-column expressions fall back
// to a third of the stream size.
func distinctOf(e expr.Expr, cols []catalog.ColumnStats, n float64) float64 {
	if c, ok := e.(*expr.Column); ok && c.Index < len(cols) {
		if d := cols[c.Index].Distinct; d > 0 {
			return drawnDistinct(d, n)
		}
	}
	d := n / 3
	if d < 1 {
		d = 1
	}
	return d
}

// drawnDistinct estimates the distinct values observed after drawing n items
// uniformly from a domain of size d (the balls-into-bins estimator).
func drawnDistinct(d, n float64) float64 {
	if d <= 0 {
		return 1
	}
	if n <= 0 {
		return 0
	}
	if n >= d*32 {
		return d
	}
	got := d * (1 - pow1m(1/d, n))
	if got < 1 {
		got = 1
	}
	if got > n {
		got = n
	}
	return got
}

// pow1m computes (1-x)^n stably for small x via exp(n·log1p(-x)).
func pow1m(x, n float64) float64 {
	if x >= 1 {
		return 0
	}
	return math.Exp(n * math.Log1p(-x))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
