package exec

import (
	"sort"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// InsertTuple wraps a base-table row as an insert delta valid for all
// queries. Scan operators stamp the query bits, so base tuples carry an
// all-ones bitvector.
func InsertTuple(row value.Row) delta.Tuple {
	return delta.Tuple{Row: row, Bits: mqo.Bitset(^uint64(0)), Sign: delta.Insert}
}

// materialized folds a buffer's deltas into the net rows for query q,
// segment by segment.
func materialized(log *buffer.Log, q int) []value.Row {
	return delta.Materialize(log.NewReader().ReadNew(), q)
}

// sortedRows renders rows into sorted strings for order-insensitive result
// comparison in tests and examples.
func sortedRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// SortedResults returns query q's result rows rendered and sorted, for
// comparisons across pace configurations.
func (r *Runner) SortedResults(q int) []string {
	return sortedRows(r.Results(q))
}
