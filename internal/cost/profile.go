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
	"ishare/internal/value"
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

// stream is a tuple stream inside the simulator: a Profile whose column
// statistics are reduced to their Distinct, the only part that changes with
// pace. Min and Max follow from the catalog and the operator tree alone, so
// a compiled plan holds them once, as column shapes.
type stream struct {
	Gross, Net, DeleteShare float64
	Queries                 mqo.Bitset
	PerQuery, Distinct      []float64
}

// grossFor returns the gross tuples valid for query q. A query the stream
// has no entry for sees the whole stream.
func (s *stream) grossFor(q int) float64 {
	if s.Queries.Has(q) {
		return s.PerQuery[s.Queries.Intersect(mqo.Bit(q)-1).Count()]
	}
	return s.Gross
}

// stream views the profile as a simulator input whose column Distincts are
// copied into distinct, which has the input's width: a column the profile
// has no statistics for reads 0. PerQuery is aliased, not copied.
func (p Profile) stream(distinct []float64) stream {
	for i := range distinct {
		distinct[i] = 0
		if i < len(p.Cols) {
			distinct[i] = p.Cols[i].Distinct
		}
	}
	return stream{Gross: p.Gross, Net: p.Net, DeleteShare: p.DeleteShare, Queries: p.Queries,
		PerQuery: p.PerQuery, Distinct: distinct}
}

// profile materializes the stream as a Profile with full column statistics
// that owns its slices.
func (s *stream) profile(shape []colShape) Profile {
	return Profile{Gross: s.Gross, Net: s.Net, DeleteShare: s.DeleteShare, Queries: s.Queries,
		PerQuery: append([]float64(nil), s.PerQuery...), Cols: columnStats(shape, s.Distinct)}
}

// colShape is the part of a column's statistics that pace cannot change: its
// value range.
type colShape struct{ Min, Max value.Value }

// columnStats joins column shapes with their Distincts.
func columnStats(shape []colShape, distinct []float64) []catalog.ColumnStats {
	cols := make([]catalog.ColumnStats, len(shape))
	for i, c := range shape {
		cols[i] = catalog.ColumnStats{Distinct: distinct[i], Min: c.Min, Max: c.Max}
	}
	return cols
}

// colStats adapts a stream's columns to the expr.StatsProvider interface:
// Min and Max from their shape, Distinct from the stream. The methods are on
// the pointer so that a long-lived value (the simulation arena's) converts
// to the interface without allocating.
type colStats struct {
	shape    []colShape
	distinct []float64
}

func (c *colStats) ColumnStats(i int) (catalog.ColumnStats, bool) {
	if i < 0 || i >= len(c.distinct) {
		return catalog.ColumnStats{}, false
	}
	s := catalog.ColumnStats{Distinct: c.distinct[i], Min: c.shape[i].Min, Max: c.shape[i].Max}
	if s.Distinct <= 0 {
		return s, false
	}
	return s, true
}

// distinctOf estimates the number of distinct values of an expression over a
// stream with the given column Distincts. Non-column expressions fall back
// to a third of the stream size. dm is the caller's domain for this
// expression, kept across the steps of a simulation.
func distinctOf(e expr.Expr, distinct []float64, n float64, dm *domain) float64 {
	if c, ok := e.(*expr.Column); ok && c.Index < len(distinct) {
		if d := distinct[c.Index]; d > 0 {
			return dm.drawn(d, n)
		}
	}
	return max(n/3, 1)
}

// domain remembers log(1-1/d) for the domain size d it was last drawn from:
// an operator that draws from one domain at every step of a simulation keeps
// a domain in its state and pays for the logarithm once. The zero value is
// ready to use (a d of 0 never gets as far as the logarithm).
type domain struct{ d, missLog float64 }

// drawn estimates the distinct values observed after drawing n items
// uniformly from a domain of size d (the balls-into-bins estimator):
// d·(1-(1-1/d)^n), the power computed stably as exp(n·log1p(-1/d)).
func (dm *domain) drawn(d, n float64) float64 {
	if d <= 0 {
		return 1
	}
	if n <= 0 {
		return 0
	}
	if n >= d*32 {
		return d
	}
	if dm.d != d {
		dm.d, dm.missLog = d, math.Inf(-1) // (1-x)^n = 0 for x >= 1
		if x := 1 / d; !(x >= 1) {
			dm.missLog = math.Log1p(-x)
		}
	}
	return min(max(d*(1-math.Exp(n*dm.missLog)), 1), n)
}

// drawnDistinct is domain.drawn for a one-off domain.
func drawnDistinct(d, n float64) float64 {
	var dm domain
	return dm.drawn(d, n)
}

func clamp01(x float64) float64 { return min(max(x, 0), 1) }
