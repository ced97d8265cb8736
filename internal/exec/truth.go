package exec

import (
	"sync"

	"ishare/internal/expr"
	"ishare/internal/vec"
)

// This file is the truth-column store: each scan marker predicate's outcome
// on each base-table row, evaluated once and served to every scan that
// applies the same predicate to the same table — a graft's rebuilt scan
// counting history, or two queries of one scan whose predicates render
// alike — and to every reader of those scans' views (scan.go). A scan tags table rows, which never change once logged, with pure
// predicates, so a memoized outcome is exactly what re-evaluation would
// compute: the columns change only how often Truths runs, never a marker bit
// or a Work counter. They are one kind of the Registry's shared state
// (arrange.go): attached when a scan is built, released with its executor at
// graft, and dropped from the registry at the last release.

// truthCol holds the bit-packed outcome of one marker predicate over one
// table log's positions [0, n). It only ever grows at n, so it has no gaps:
// bit p is the predicate's truth on the row at log position p. mu serializes
// fill and read — wave-parallel firings may run two scans of one table, and
// readers of either, at once.
type truthCol struct {
	stateHeader

	mu    sync.Mutex
	words []uint64
	n     int
}

func (c *truthCol) bit(p int) bool { return c.words[p>>6]&(1<<(uint(p)&63)) != 0 }

// append records the outcomes vals[i], i in sel in order, at positions n
// onwards.
func (c *truthCol) append(sel vec.SelVector, vals []bool) {
	n := c.n
	for _, i := range sel {
		if n&63 == 0 {
			c.words = append(c.words, 0)
		}
		c.words[n>>6] |= b2u(vals[i]) << (uint(n) & 63)
		n++
	}
	c.n = n
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// truthKey identifies a scan predicate's truth column: the table and the
// predicate's canonical form.
func truthKey(table string, pred expr.Expr) string {
	return table + "\x00" + expr.Canon(pred)
}

// TruthStats is a point-in-time accounting of the truth columns.
type TruthStats struct {
	// Live counts refcounted columns; Bits is the outcomes they hold.
	Live int
	Bits int64
	// Evaluated counts (row, predicate) outcomes scans computed with Truths;
	// Served counts those they read from a column instead. Both are
	// lifetime counters.
	Evaluated, Served int64
	// ViewRows counts the rows scan views yielded to their readers, and
	// ViewSkipped the rows of a view's output a reader skipped because none
	// of its queries passes them (query-set pushdown). Lifetime counters.
	ViewRows, ViewSkipped int64
}

// TruthStats must not race running executions: call it between windows.
func (r *Registry) TruthStats() TruthStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := TruthStats{
		Evaluated:   r.counts.evaluated.Load(),
		Served:      r.counts.served.Load(),
		ViewRows:    r.counts.viewRows.Load(),
		ViewSkipped: r.counts.skipped.Load(),
	}
	for _, s := range r.live {
		if c, ok := s.(*truthCol); ok {
			st.Live++
			st.Bits += int64(c.n)
		}
	}
	return st
}
