package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/mqo"
)

// This file implements online query admission at the executor level:
// Runner.Graft swaps a running Runner onto a revised subplan graph (queries
// admitted to or retired from the shared plan) without discarding operator
// state. It pairs new subplans with old executors in two passes, children
// first:
//
//   - Adopt: a subplan state-identical to an old one (mqo.MatchSubplans: its
//     whole input cone renders the same) takes over the old executor
//     wholesale — join build sides, group indexes, ordset accumulators and
//     the materialized output log carry over via their stable references —
//     provided its joins keep the same output layout (vetoLayoutChanges).
//   - Reattach: an admission or retirement changes the query set of a shared
//     scan, and with it the state signature of everything above it, although
//     nothing changed for the queries those subplans serve. A subplan whose
//     own operators are unchanged (equal local signature) takes over the old
//     executor when every input is either carried over too or a scan/project
//     cone that looks the same to its queries (equal restricted signature).
//     Its state, output log and per-window marks stay valid; its readers are
//     re-pointed at the end of the rebuilt inputs' outputs, and the
//     input-tuple counts of its history are corrected to what reading the
//     rebuilt inputs would have counted (reattacher).
//
// Subplans with no such predecessor are rebuilt fresh and *replayed* through
// the sealed window-by-window history (Runner.winData /
// SubplanExec.winEnd), so their state, output and modeled work land exactly
// where a from-scratch run over the same lifetime would have put them. Old
// subplans nothing took over — including those whose last sharer retired —
// are dropped and their state garbage-collected.

// GraftOptions configures one plan graft.
type GraftOptions struct {
	// DisableTransplant rebuilds and replays every subplan even when an old
	// executor could be adopted or reattached. Results and modeled work must
	// be unchanged — carrying state over is purely an optimization — and the
	// churn-mode differential oracle runs every schedule both ways to prove
	// it.
	DisableTransplant bool
}

// GraftStats summarizes what one graft did.
type GraftStats struct {
	// Adopted counts subplans whose old executor state carried over,
	// Reattached included.
	Adopted int
	// Reattached counts the adoptions of the reattach pass: subplans whose
	// own operators are unchanged but whose input cone changed for other
	// queries only.
	Reattached int
	// Vetoed counts state-identical matches not adopted because a member
	// join's output layout differs under the new graph, or a child's match
	// was vetoed; they are rebuilt (and counted there) instead.
	Vetoed int
	// Rebuilt counts subplans built fresh and replayed from history.
	Rebuilt int
	// Dropped counts old executors released because no new subplan adopted
	// them (e.g. the last sharing query retired).
	Dropped int
	// Replayed counts window replays performed (rebuilt subplans × sealed
	// windows).
	Replayed int
	// ArrangementsShared counts arrangement attaches during the graft that
	// were served by an existing arrangement instead of building state anew
	// — the warm-reuse the registry buys a rebuilt sharer.
	ArrangementsShared int
	// ArrangementsFreed counts arrangements whose last handle released in
	// the graft; they stay tombstoned until the next window seals.
	ArrangementsFreed int
}

// DebugGraftLooseMatch, when true, lets Graft adopt old executors whose
// loose state signature matches (query-slot bitsets masked out) even though
// the strict signature does not — the classic online-admission bug where an
// admitted query is grafted onto existing operator state without catching
// up: tuples stamped before admission never carry the new query's bit, and
// future scans keep stamping the old bitset. It exists to prove the
// churn-mode differential oracle has teeth; production code must never set
// it.
var DebugGraftLooseMatch bool

// graftResolver resolves fresh executors' inputs during a graft, when
// r.Execs still describes the old plan: child outputs come from the new
// executor slice as it is being filled (children-first).
type graftResolver struct {
	r     *Runner
	execs []*SubplanExec
}

func (gr graftResolver) TableLog(name string) (*buffer.Log, error) {
	return gr.r.TableLog(name)
}

func (gr graftResolver) subplanExec(s *mqo.Subplan) (*SubplanExec, error) {
	se := gr.execs[s.ID]
	if se == nil {
		return nil, fmt.Errorf("exec: graft: subplan %d has no executor yet", s.ID)
	}
	return se, nil
}

// Graft swaps the runner onto newG, carrying operator state over where a new
// subplan is state-identical to an old one or can be reattached to it, and
// replaying the rest from the sealed window history. It must be called at a
// window boundary: every delta of the current window appended and processed
// (the scheduler runtime and the churn oracle both graft between windows).
// The current window is sealed first, so post-graft arrivals start a fresh
// window.
func (r *Runner) Graft(newG *mqo.Graph, opts GraftOptions) (*GraftStats, error) {
	// Flush any remainder of the current stream into the logs (a no-op for
	// well-behaved window-boundary callers), then seal the window so the
	// history below is complete.
	r.ArriveWindow(1, 1)
	r.sealWindow()
	regBefore := r.reg.Stats()

	stats := &GraftStats{}
	newLay := planLayouts(newG)
	match := mqo.MatchSubplans(r.Graph, newG)
	stats.Vetoed = r.vetoLayoutChanges(match, newG, newLay)
	var looseBySig map[string][]int
	var newLoose []string
	if DebugGraftLooseMatch {
		oldLoose := mqo.LooseStateSignatures(r.Graph)
		newLoose = mqo.LooseStateSignatures(newG)
		looseBySig = make(map[string][]int)
		for _, s := range r.Graph.Subplans {
			looseBySig[oldLoose[s.ID]] = append(looseBySig[oldLoose[s.ID]], s.ID)
		}
	}

	// Tables the new plan scans that have no log yet (they may or may not
	// have been arriving unobserved): create empty logs now and backfill
	// them window by window during replay.
	newTables := make(map[string]bool)
	for _, s := range newG.Subplans {
		for _, o := range s.Scans() {
			name := o.Table.Name
			if _, ok := r.tables[name]; !ok {
				r.tables[name] = buffer.NewLog("table:" + name)
				newTables[name] = true
			}
		}
	}

	newExecs := make([]*SubplanExec, len(newG.Subplans))
	res := graftResolver{r: r, execs: newExecs}
	var re *reattacher
	if !opts.DisableTransplant {
		re = r.newReattacher(newG, newLay, newExecs, match)
	}
	adoptedOld := make(map[int]bool)
	take := func(s *mqo.Subplan, oldID int) {
		se := r.Execs[oldID]
		se.adopt(r.Graph.Subplans[oldID], s)
		newExecs[s.ID] = se
		adoptedOld[oldID] = true
		stats.Adopted++
	}
	var fresh []*mqo.Subplan
	var rebinds []rebind
	for _, s := range newG.Subplans { // children-first
		if oldID, ok := match[s.ID]; ok && !opts.DisableTransplant {
			take(s, oldID)
			continue
		}
		if DebugGraftLooseMatch {
			staleAdopted := false
			for _, oldID := range looseBySig[newLoose[s.ID]] {
				if adoptedOld[oldID] || !sameLayouts(r.Graph, r.Graph.Subplans[oldID], s, r.lay, newLay) {
					continue
				}
				take(s, oldID)
				staleAdopted = true
				break
			}
			if staleAdopted {
				continue
			}
		}
		if re != nil {
			if oldID, rbs, ok := re.find(s, adoptedOld); ok {
				take(s, oldID)
				stats.Reattached++
				rebinds = append(rebinds, rbs...)
				continue
			}
		}
		se, err := newSubplanExec(newG, s, res, r.opts.batch(), r.reg, newLay)
		if err != nil {
			return nil, fmt.Errorf("exec: graft: %w", err)
		}
		newExecs[s.ID] = se
		fresh = append(fresh, s)
		stats.Rebuilt++
	}
	stats.Dropped = len(r.Graph.Subplans) - len(adoptedOld)

	// Replay each rebuilt subplan through the sealed windows: one execution
	// per window, inputs capped at that window's marks. Children-first
	// within each window, so a rebuilt parent reads its rebuilt child's
	// freshly replayed window-k output. A rebuilt scan has no tuples to
	// replay: its executions fill any new predicate's column over history
	// once and count the rows it passes per window.
	for k := range r.winData {
		marks := r.winData[k]
		for name := range newTables {
			target := marks[name] // zero if the table had not arrived yet
			if from := r.appended[name]; target > from {
				r.tables[name].Append(r.Data[name][from:target]...)
				r.appended[name] = target
			}
		}
		for _, s := range fresh {
			se := newExecs[s.ID]
			se.setReplayLimits(newG, marks, newExecs, k)
			se.RunOnce()
			se.seal()
			stats.Replayed++
		}
	}
	for _, s := range fresh {
		newExecs[s.ID].clearReplayLimits()
	}
	for name := range newTables {
		r.windowBase[name] = r.appended[name]
	}
	// Reattached executors read on from where their rebuilt inputs' replay
	// ended.
	for _, rb := range rebinds {
		rb.apply()
	}

	// Dropped executors release their arrangement handles only now, after
	// the fresh executors attached and replayed: a rebuilt subplan indexing
	// the same state re-keyed onto the still-live arrangement (a warm
	// attach — its replay deduplicated against the built state instead of
	// rebuilding it). Arrangements freed here tombstone until the next
	// window seals.
	for id, se := range r.Execs {
		if !adoptedOld[id] {
			se.release(r.reg)
		}
	}
	regAfter := r.reg.Stats()
	stats.ArrangementsShared = int(regAfter.SharedAttaches - regBefore.SharedAttaches)
	stats.ArrangementsFreed = int(regAfter.Freed - regBefore.Freed)

	r.Execs = newExecs
	r.Graph = newG
	r.lay = newLay
	// Scan cones and depths follow the new graph; skipping stays disabled
	// until the next window boundary recomputes dirtiness (see reuse.go).
	r.indexGraph()
	r.winClean = make([]bool, len(newG.Subplans))
	return stats, nil
}

// vetoLayoutChanges drops from match (newID → oldID) every pair the old
// executor cannot serve although it is state-identical: one whose member
// joins emit a different layout under the new graph — the layout is not part
// of the state signature, so retiring a query and admitting another into
// its slot can keep a shared join's signature while its readers change —
// and, children-first, every matched ancestor of a vetoed pair, whose
// adopted operators read the vetoed child's old-layout log. It returns the
// number of pairs dropped.
func (r *Runner) vetoLayoutChanges(match map[int]int, newG *mqo.Graph, newLay layouts) int {
	vetoed := 0
	for _, s := range newG.Subplans { // children-first
		oldID, ok := match[s.ID]
		if !ok {
			continue
		}
		keep := sameLayouts(r.Graph, r.Graph.Subplans[oldID], s, r.lay, newLay)
		for _, c := range s.Children {
			if _, ok := match[c.ID]; !ok {
				keep = false
			}
		}
		if !keep {
			delete(match, s.ID)
			vetoed++
		}
	}
	return vetoed
}

// reattacher is Graft's second matching pass. Its rule and why it is exact:
//
//   - The new subplan's own operators render the same as the old one's (equal
//     local signatures) and its joins keep their layouts, so they stamp,
//     mark and combine equal inputs identically.
//   - Every input is either the very executor the old subplan read (carried
//     over by either pass) or a scan/project cone whose restricted signature
//     — the cone as the subplan's queries see it — equals the old input's.
//     Every operator of the subplan intersects each tuple's bits with its
//     query set and drops the tuples left empty, so such an input looks the
//     same, tuple for tuple, to all of it. Its state, output log and
//     per-window output marks are what a from-scratch run would have built.
//   - The one count that sees the other queries' tuples is the reading
//     operator's Tuples, which counts every tuple read. rebind.apply corrects
//     it window by window, so a later graft corrects from there: the
//     corrections telescope.
//   - The per-window correction assumes the old executor read exactly window
//     k's input in its k-th execution. That holds when it ran once per sealed
//     window, after its inputs (firings run children-first). A subplan paced
//     above 1 by the scheduler is rebuilt instead.
type reattacher struct {
	r        *Runner
	newG     *mqo.Graph
	newLay   layouts
	newExecs []*SubplanExec
	// byLocal indexes old subplans by local state signature; matched holds
	// the old subplans the first pass paired with a new one.
	byLocal  map[string][]int
	newLocal []string
	matched  map[int]bool
}

func (r *Runner) newReattacher(newG *mqo.Graph, newLay layouts, newExecs []*SubplanExec, match map[int]int) *reattacher {
	re := &reattacher{
		r:        r,
		newG:     newG,
		newLay:   newLay,
		newExecs: newExecs,
		byLocal:  make(map[string][]int),
		newLocal: mqo.LocalStateSignatures(newG),
		matched:  make(map[int]bool, len(match)),
	}
	for id, sig := range mqo.LocalStateSignatures(r.Graph) {
		re.byLocal[sig] = append(re.byLocal[sig], id)
	}
	for _, oldID := range match {
		re.matched[oldID] = true
	}
	return re
}

// find returns an old executor the new subplan s may take over, and the
// inputs to re-point once the rebuilt subplans have replayed. Every child of
// s must already have its executor in newExecs (children-first).
func (re *reattacher) find(s *mqo.Subplan, adopted map[int]bool) (int, []rebind, bool) {
	r := re.r
	for _, oldID := range re.byLocal[re.newLocal[s.ID]] {
		old, se := r.Graph.Subplans[oldID], r.Execs[oldID]
		if re.matched[oldID] || adopted[oldID] || len(se.perExec) != len(r.winData) ||
			!sameLayouts(r.Graph, old, s, r.lay, re.newLay) {
			continue
		}
		if rbs, ok := re.inputs(old, s, se); ok {
			return oldID, rbs, true
		}
	}
	return 0, nil, false
}

// inputs pairs each child-subplan input of old with the same input of s and
// reports whether s can read every one of them through old's executor se:
// unchanged when s's child runs on the executor old read, re-pointed when the
// two children are scan/project cones that look the same to s's queries.
func (re *reattacher) inputs(old, s *mqo.Subplan, se *SubplanExec) ([]rebind, bool) {
	r := re.r
	var rbs []rebind
	ok := true
	pairOps(old.Root, s.Root, func(o *mqo.Op) bool { return se.member[o] }, func(oldOp, newOp *mqo.Op) {
		if oldOp.Kind == mqo.KindScan {
			return
		}
		for i, oc := range oldOp.Children {
			if se.member[oc] {
				continue
			}
			from, to := r.Graph.SubplanOf(oc), re.newG.SubplanOf(newOp.Children[i])
			if re.newExecs[to.ID] == r.Execs[from.ID] {
				continue
			}
			oldSig, okOld := mqo.RestrictedConeSignature(r.Graph, from, s.Queries)
			newSig, okNew := mqo.RestrictedConeSignature(re.newG, to, s.Queries)
			if !okOld || !okNew || oldSig != newSig {
				ok = false
				continue
			}
			rbs = append(rbs, rebind{se: se, key: inputKey{newOp, i}, from: r.Execs[from.ID], to: re.newExecs[to.ID]})
		}
	})
	return rbs, ok
}

// rebind moves one input of a reattached executor from the old producer to
// the producer that replaced it.
type rebind struct {
	se       *SubplanExec
	key      inputKey
	from, to *SubplanExec
}

// apply starts a reader at the end of the new producer's output and adds,
// for every sealed window, the difference between the two producers' window
// output counts to that execution's Tuples and to the reading operator's.
// It runs after replay, when the new producer's marks cover every window.
func (rb rebind) apply() {
	rb.se.srcs[rb.key.op][rb.key.slot] = rb.se.reader(rb.to, rb.key.op.Queries, rb.to.end())
	var total int64
	fromPrev, toPrev := 0, 0
	for k := range rb.se.perExec {
		d := int64(rb.to.winOut[k]-toPrev) - int64(rb.from.winOut[k]-fromPrev)
		fromPrev, toPrev = rb.from.winOut[k], rb.to.winOut[k]
		rb.se.perExec[k].Tuples += d
		total += d
	}
	w := rb.se.opWork[rb.key.op]
	w.Tuples += total
	rb.se.opWork[rb.key.op] = w
}

// adopt remaps the executor's per-operator bookkeeping from the old
// subplan's operators onto the state-identical new subplan's by walking the
// two operator trees in lockstep (pairOps). Operator instances, input
// sources, the output log and all accumulated work carry over untouched;
// only the map keys change identity.
func (se *SubplanExec) adopt(oldSub, newSub *mqo.Subplan) {
	ops := make(map[*mqo.Op]any, len(se.ops))
	member := make(map[*mqo.Op]bool, len(se.member))
	srcs := make(map[*mqo.Op][]source, len(se.srcs))
	opWork := make(map[*mqo.Op]Work, len(se.opWork))
	pairOps(oldSub.Root, newSub.Root, func(o *mqo.Op) bool { return se.member[o] }, func(oldOp, newOp *mqo.Op) {
		ops[newOp] = se.ops[oldOp]
		member[newOp] = true
		opWork[newOp] = se.opWork[oldOp]
		if s, ok := se.srcs[oldOp]; ok {
			srcs[newOp] = s
		}
	})
	se.Sub = newSub
	se.ops, se.member, se.srcs, se.opWork = ops, member, srcs, opWork
}

// setReplayLimits caps every input at window k's marks: scans at the table's
// stream mark, sources over child subplans at the child executor's window-k
// end.
func (se *SubplanExec) setReplayLimits(g *mqo.Graph, marks map[string]int, execs []*SubplanExec, k int) {
	for op, x := range se.ops {
		if s, ok := x.(*scanExec); ok {
			s.limit = marks[op.Table.Name]
		}
	}
	for op, srcs := range se.srcs {
		for i, c := range op.Children {
			if !se.member[c] {
				srcs[i].setLimit(execs[g.SubplanOf(c).ID].winEnd[k])
			}
		}
	}
}

// clearReplayLimits removes the caps so post-graft execution reads freely.
func (se *SubplanExec) clearReplayLimits() {
	for _, x := range se.ops {
		if s, ok := x.(*scanExec); ok {
			s.limit = -1
		}
	}
	for _, srcs := range se.srcs {
		for _, src := range srcs {
			src.setLimit(-1)
		}
	}
}
