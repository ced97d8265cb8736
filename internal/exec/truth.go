package exec

import (
	"sync"

	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/vec"
)

// This file is the truth-column store: each scan marker predicate's outcome
// on each base-table row, evaluated once and served to every scan that
// applies the same predicate to the same table — a graft's rebuilt scan
// replaying history, or two queries of one scan whose predicates render
// alike. A scan tags table rows, which never change once logged, with pure
// predicates, so a memoized outcome is exactly what re-evaluation would
// compute: the columns change only how often Truths runs, never a marker bit
// or a Work counter. They live in the Registry beside the arrangements and
// follow the same lifecycle: attached when a scan is built, released with its
// executor at graft, tombstoned at the last release and reclaimed at the
// next window seal.

// truthCol holds the bit-packed outcome of one marker predicate over one
// table log's positions [0, n). It only ever grows at n, so it has no gaps:
// bit p is the predicate's truth on the row at log position p. mu serializes
// fill and read — wave-parallel firings may run two scans of one table at
// once.
type truthCol struct {
	key  string // registry key; "" for a private column
	refs int    // attached scan markers; guarded by Registry.mu

	mu    sync.Mutex
	words []uint64
	n     int
}

func (c *truthCol) bit(p int) bool { return c.words[p>>6]&(1<<(uint(p)&63)) != 0 }

// The loops below clear a failing query's bit without branching on the
// outcome: a predicate's outcomes row by row are as unpredictable as the data.

// clearFailing clears bit in bits[i] wherever the column's outcome at
// position p+i is false.
func (c *truthCol) clearFailing(bits []mqo.Bitset, p int, bit mqo.Bitset) {
	for i := range bits {
		bits[i] &^= bit * mqo.Bitset(b2u(c.bit(p+i))^1)
	}
}

// clearEvaluated clears bit in bits[i] for every i in sel whose outcome
// vals[i] is false and, when fill is set, appends the outcomes in order —
// sel then covers positions c.n onwards.
func (c *truthCol) clearEvaluated(bits []mqo.Bitset, sel vec.SelVector, vals []bool, bit mqo.Bitset, fill bool) {
	if !fill {
		for _, i := range sel {
			bits[i] &^= bit * mqo.Bitset(b2u(vals[i])^1)
		}
		return
	}
	n := c.n
	for _, i := range sel {
		b := b2u(vals[i])
		bits[i] &^= bit * mqo.Bitset(b^1)
		if n&63 == 0 {
			c.words = append(c.words, 0)
		}
		c.words[n>>6] |= b << (uint(n) & 63)
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

// truthKey identifies a scan predicate's truth column: the table, the
// predicate's canonical form and the kinds of its constants, which Canon
// does not render (Int 2450 and Float 2450.0 print alike but need not
// compare alike).
func truthKey(table string, pred expr.Expr) string {
	kinds := []byte{0}
	pred.Walk(func(e expr.Expr) {
		if c, ok := e.(*expr.Const); ok {
			kinds = append(kinds, byte(c.Val.K))
		}
	})
	return table + "\x00" + expr.Canon(pred) + string(kinds)
}

// attachTruth returns the truth column for key, sharing a live one when
// sharing is on; otherwise the caller gets a private column of its own.
func (r *Registry) attachTruth(key string) *truthCol {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.share {
		if c, ok := r.truths[key]; ok {
			c.refs++
			return c
		}
	}
	c := &truthCol{refs: 1}
	if r.share {
		c.key = key
		r.truths[key] = c
	}
	r.truthLive[c] = struct{}{}
	return c
}

// releaseTruth drops one handle; the last holder tombstones the column until
// the next Sweep, as release does for arrangements.
func (r *Registry) releaseTruth(c *truthCol) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.refs--
	if c.refs > 0 {
		return
	}
	delete(r.truthLive, c)
	if c.key != "" {
		delete(r.truths, c.key)
	}
	r.truthTombs = append(r.truthTombs, c)
}

// TruthStats is a point-in-time accounting of the truth columns.
type TruthStats struct {
	// Live counts refcounted columns, Pending the tombstoned ones awaiting a
	// window seal; Bits is the outcomes both hold.
	Live, Pending int
	Bits          int64
	// Evaluated counts (row, predicate) outcomes scans computed with Truths;
	// Served counts those they read from a column instead. Both are
	// lifetime counters.
	Evaluated, Served int64
}

// TruthStats must not race running executions: call it between windows.
func (r *Registry) TruthStats() TruthStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := TruthStats{
		Live:      len(r.truthLive),
		Pending:   len(r.truthTombs),
		Evaluated: r.truthEvaluated.Load(),
		Served:    r.truthServed.Load(),
	}
	for c := range r.truthLive {
		st.Bits += int64(c.n)
	}
	for _, c := range r.truthTombs {
		st.Bits += int64(c.n)
	}
	return st
}

// attach keys each marker's truth column through the registry. Keys are
// built here, once per scan; the per-chunk path only reads the columns.
func (s *scanExec) attach(reg *Registry) {
	s.reg = reg
	s.cols = make([]*truthCol, len(s.markers))
	for k, m := range s.markers {
		s.cols[k] = reg.attachTruth(truthKey(s.op.Table.Name, s.op.Preds[m.q]))
	}
}

// release drops the scan's truth handles when a graft retires it.
func (s *scanExec) release(reg *Registry) {
	for _, c := range s.cols {
		reg.releaseTruth(c)
	}
	s.cols = nil
}

func (s *scanExec) handles() int { return len(s.cols) }

// applyTruths clears failing queries' bits in the chunk, whose rows sit at
// table log positions [p, p+len(ch.Tup)). A scan chunk selects every row and
// seeds every row's bits with the scan's query set, so each marker whose
// query the scan serves decides every row: positions its column covers are
// read, the rest evaluated — and appended when they start at the column's
// end, so a column never spans a gap. It returns the outcomes evaluated and
// served.
func (s *scanExec) applyTruths(ch *vec.Chunk, p int) (evaluated, served int64) {
	n := len(ch.Tup)
	for k := range s.markers {
		m := &s.markers[k]
		if !s.op.Queries.Has(m.q) {
			continue
		}
		bit := mqo.Bit(m.q)
		c := s.cols[k]
		c.mu.Lock()
		cut := min(max(c.n-p, 0), n)
		c.clearFailing(ch.Bits[:cut], p, bit)
		if cut < n {
			sub := ch.Sel[cut:]
			c.clearEvaluated(ch.Bits, sub, m.pred.Truths(ch, sub), bit, p+cut == c.n)
		}
		c.mu.Unlock()
		served += int64(cut)
		evaluated += int64(n - cut)
	}
	return evaluated, served
}
