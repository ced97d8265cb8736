package exec

import (
	"fmt"

	"ishare/internal/mqo"
)

// This file implements online query admission at the executor level:
// Runner.Graft swaps a running Runner onto a revised subplan graph (queries
// admitted to or retired from the shared plan) without discarding operator
// state. Children first, a new subplan P takes over an old executor O — its
// operator state, output log, per-window marks and work counters, each of
// O's operator nodes taking P's operator of the same pre-order number
// (opNode) — when all of these hold (grafter.find):
//
//   - O has not been taken by another new subplan;
//   - P's own operators render the same as O's (equal local state
//     signatures, mqo.LocalStateSignatures) and its joins keep their output
//     layouts (sameLayouts), so they stamp, mark and combine equal inputs
//     identically into rows of the same shape;
//   - every input of P is either the executor O read, carried over, or a
//     scan/project cone that looks the same to P's queries as O's input did
//     (equal mqo.RestrictedConeSignature). Every operator intersects each
//     tuple's bits with its query set and drops the tuples left empty, so
//     such an input yields P the same tuples in the same order: O's state,
//     output log and per-window output marks are what a from-scratch P would
//     have built.
//
// An input of the second kind is *re-pointed* after replay (rebind): the
// reader moves to the end of the rebuilt producer's output, and the one
// count that sees the other queries' tuples — the reading operator's Tuples,
// which counts every tuple read — is corrected window by window to what
// reading the rebuilt input would have counted, so a later graft corrects
// from there and the corrections telescope. The correction assumes O's k-th
// execution read exactly window k's input, which holds when O ran once per
// sealed window, after its inputs (firings run children-first); a subplan
// paced above 1 that needs a re-pointed input is rebuilt instead. Among
// several candidates, one that needs no re-pointing wins.
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
	// executor could be adopted. Results and modeled work must be unchanged
	// — carrying state over is purely an optimization — and the churn-mode
	// differential oracle runs every schedule both ways to prove it.
	DisableTransplant bool
}

// GraftStats summarizes what one graft did.
type GraftStats struct {
	// Adopted counts new subplans that took over an old executor.
	Adopted int
	// Reattached counts the adoptions whose own operators are unchanged but
	// whose input cone changed for other queries only: those with a
	// re-pointed input, and those above such an adoption.
	Reattached int
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
	// the graft; the registry drops them at once.
	ArrangementsFreed int
	// AdoptedFrom maps each new subplan id to the id of the old executor it
	// took over, or -1 for a rebuilt subplan. A graft renumbers subplans —
	// new ids are the new graph's children-first order — so anything kept
	// per subplan id follows this map across the graft.
	AdoptedFrom []int
}

// DebugGraftLooseMatch, when true, lets Graft adopt, for a new subplan the
// adoption rule rebuilds, an old executor whose loose state signature
// matches (query-slot bitsets masked out) — the classic online-admission bug
// where an admitted query is grafted onto existing operator state without
// catching up: tuples stamped before admission never carry the new query's
// bit, and future scans keep stamping the old bitset. It exists to prove the
// churn-mode differential oracle has teeth; production code must never set
// it.
var DebugGraftLooseMatch bool

// Graft swaps the runner onto newG, carrying operator state over where a new
// subplan can take over an old executor (see the rule above) and replaying
// the rest from the sealed window history. It must be called at a window
// boundary: every delta of the current window appended and processed (the
// scheduler runtime and the churn oracle both graft between windows). The
// current window is sealed first, so post-graft arrivals start a fresh
// window. The graft changes no old executor until every rebuilt subplan has
// replayed: a construction error, or a panic in replay (returned as an error
// naming the new subplan), releases the rebuilt executors' registry handles
// and leaves the runner on its old graph and executors, as if never called.
// After a failed firing group Graft returns an error wrapping it (RunGroup).
func (r *Runner) Graft(newG *mqo.Graph, opts GraftOptions) (*GraftStats, error) {
	if r.err != nil {
		return nil, r.failed()
	}
	// Reveal any remainder of the current window (a no-op for well-behaved
	// window-boundary callers), then seal it so the history below is
	// complete: every table's log holds all that arrived, scanned or not.
	r.ArriveWindow(1, 1)
	r.sealWindow()
	regBefore := r.reg.Stats()

	stats := &GraftStats{AdoptedFrom: make([]int, len(newG.Subplans))}
	gr := r.newGrafter(newG)
	var fresh []*SubplanExec
	var rebinds []rebind
	fail := func(err error) (*GraftStats, error) {
		for _, se := range fresh {
			se.state.release()
		}
		return nil, fmt.Errorf("exec: graft: %w", err)
	}
	for _, s := range newG.Subplans { // children-first
		oldID := -1
		if !opts.DisableTransplant {
			if id, rbs, above, ok := gr.find(s); ok {
				oldID = id
				rebinds = append(rebinds, rbs...)
				if len(rbs) > 0 || above {
					gr.reattached[s.ID] = true
					stats.Reattached++
				}
			}
		}
		if oldID < 0 && DebugGraftLooseMatch {
			oldID = gr.findLoose(s)
		}
		stats.AdoptedFrom[s.ID] = oldID
		if oldID >= 0 {
			gr.execs[s.ID] = r.Execs[oldID]
			gr.taken[oldID] = true
			stats.Adopted++
			continue
		}
		se, err := newSubplanExec(r, newG, s, gr.execs, gr.lay)
		if err != nil {
			return fail(err)
		}
		gr.execs[s.ID] = se
		fresh = append(fresh, se)
		stats.Rebuilt++
	}
	newExecs := gr.execs
	stats.Dropped = len(r.Graph.Subplans) - stats.Adopted

	// Replay each rebuilt subplan through the sealed windows: one execution
	// per window, inputs capped at that window's marks. Children-first
	// within each window, so a rebuilt parent reads its rebuilt child's
	// freshly replayed window-k output. A rebuilt scan has no tuples to
	// replay: its executions fill any new predicate's column over history
	// once and count the rows it passes per window. Replay reads the old
	// executors and changes none of them.
	for k, marks := range r.winData {
		for _, se := range fresh {
			se.setReplayLimits(newG, marks, newExecs, k)
			if err := guard(se.Sub.ID, func() { se.RunOnce() }); err != nil {
				return fail(fmt.Errorf("replay of window %d: %w", k, err))
			}
			se.seal()
			stats.Replayed++
		}
	}
	for _, se := range fresh {
		se.setReplayLimits(nil, nil, nil, -1)
	}

	// The graft commits: adopted executors move onto their new subplans, and
	// re-pointed inputs read on from where their rebuilt producers' replay
	// ended.
	for id, oldID := range stats.AdoptedFrom {
		if oldID >= 0 {
			newExecs[id].adopt(newG.Subplans[id])
		}
	}
	for _, rb := range rebinds {
		rb.apply()
	}

	// Dropped executors release their registry handles only now, after the
	// fresh executors attached and replayed: a rebuilt subplan keying the
	// same state attached to the still-live arrangement or truth column (a
	// warm attach — its replay deduplicated against the built state instead
	// of rebuilding it). State freed here leaves the registry at once: the
	// window was sealed above, so no execution still reads it.
	for id, se := range r.Execs {
		if !gr.taken[id] {
			se.state.release()
		}
	}
	regAfter := r.reg.Stats()
	stats.ArrangementsShared = int(regAfter.SharedAttaches - regBefore.SharedAttaches)
	stats.ArrangementsFreed = int(regAfter.Freed - regBefore.Freed)

	r.Execs = newExecs
	r.Graph = newG
	r.lay = gr.lay
	// Scan cones and depths follow the new graph; skipping stays disabled
	// until the next window boundary recomputes dirtiness (see reuse.go).
	r.indexGraph()
	r.winClean = make([]bool, len(newG.Subplans))
	return stats, nil
}

// grafter pairs the subplans of one graft's new graph with the runner's old
// executors.
type grafter struct {
	r    *Runner
	newG *mqo.Graph
	lay  layouts
	// execs is the new graph's executor slice, filled children-first;
	// taken marks the old subplans a new one took over, and reattached the
	// new subplans counted in GraftStats.Reattached.
	execs      []*SubplanExec
	taken      []bool
	reattached []bool
	// byLocal indexes old subplans by local state signature; the loose
	// signatures are computed only for DebugGraftLooseMatch.
	byLocal            map[string][]int
	newLocal           []string
	oldLoose, newLoose []string
}

func (r *Runner) newGrafter(newG *mqo.Graph) *grafter {
	gr := &grafter{
		r:          r,
		newG:       newG,
		lay:        planLayouts(newG),
		execs:      make([]*SubplanExec, len(newG.Subplans)),
		taken:      make([]bool, len(r.Graph.Subplans)),
		reattached: make([]bool, len(newG.Subplans)),
		byLocal:    make(map[string][]int),
		newLocal:   mqo.LocalStateSignatures(newG),
	}
	for id, sig := range mqo.LocalStateSignatures(r.Graph) {
		gr.byLocal[sig] = append(gr.byLocal[sig], id)
	}
	return gr
}

// find returns the old executor the new subplan s takes over, the inputs to
// re-point once the rebuilt subplans have replayed, and whether an input is
// an executor counted as reattached. Every child of s must already have its
// executor in execs (children-first).
func (gr *grafter) find(s *mqo.Subplan) (oldID int, rbs []rebind, above, ok bool) {
	r := gr.r
	for _, id := range gr.byLocal[gr.newLocal[s.ID]] {
		se := r.Execs[id]
		if gr.taken[id] || !sameLayouts(se, s, r.lay, gr.lay) {
			continue
		}
		cand, candAbove, inputsOK := gr.inputs(se, s)
		switch {
		case !inputsOK:
		case len(cand) == 0:
			return id, nil, candAbove, true
		case !ok && se.runs == len(r.winData):
			oldID, rbs, above, ok = id, cand, candAbove, true
		}
	}
	return oldID, rbs, above, ok
}

// inputs pairs each child-subplan input of old executor se with the same
// input of s, node by node, and reports whether s can read every one of them
// through se: unchanged when s's child runs on the executor se read (above
// reports whether one of those is counted as reattached), re-pointed when
// the two children are scan/project cones that look the same to s's queries.
func (gr *grafter) inputs(se *SubplanExec, s *mqo.Subplan) (rbs []rebind, above, ok bool) {
	r, ops := gr.r, se.pair(s)
	for i, n := range se.nodes {
		for slot, k := range n.kids {
			if k >= 0 {
				continue
			}
			from, to := r.Graph.SubplanOf(n.op.Children[slot]), gr.newG.SubplanOf(ops[i].Children[slot])
			if gr.execs[to.ID] == r.Execs[from.ID] {
				above = above || gr.reattached[to.ID]
				continue
			}
			oldSig, okOld := mqo.RestrictedConeSignature(r.Graph, from, s.Queries)
			newSig, okNew := mqo.RestrictedConeSignature(gr.newG, to, s.Queries)
			if !okOld || !okNew || oldSig != newSig {
				return nil, false, false
			}
			rbs = append(rbs, rebind{se: se, node: i, slot: slot, from: r.Execs[from.ID], to: gr.execs[to.ID]})
		}
	}
	return rbs, above, true
}

// findLoose returns an old executor not yet taken whose loose state
// signature equals s's and whose joins keep their layouts, or -1 (the
// DebugGraftLooseMatch fault).
func (gr *grafter) findLoose(s *mqo.Subplan) int {
	r := gr.r
	if gr.oldLoose == nil {
		gr.oldLoose, gr.newLoose = mqo.LooseStateSignatures(r.Graph), mqo.LooseStateSignatures(gr.newG)
	}
	for id, sig := range gr.oldLoose {
		if sig == gr.newLoose[s.ID] && !gr.taken[id] && sameLayouts(r.Execs[id], s, r.lay, gr.lay) {
			return id
		}
	}
	return -1
}

// rebind moves one input of a reattached executor from the old producer to
// the producer that replaced it.
type rebind struct {
	se         *SubplanExec
	node, slot int
	from, to   *SubplanExec
}

// apply starts a reader at the end of the new producer's output and adds,
// for every sealed window, the difference between the two producers' window
// output counts to the executor's total Tuples and to the reading
// operator's, and the last window's difference to the last execution's. The
// executor ran once per sealed window (grafter.find), so execution k is
// window k's. It runs after replay, when the new producer's marks cover
// every window.
func (rb rebind) apply() {
	se := rb.se
	n := &se.nodes[rb.node]
	n.srcs[rb.slot] = se.reader(rb.to, n.op.Queries, rb.to.end())
	var total, d int64
	fromPrev, toPrev := 0, 0
	for k := range se.runs {
		d = int64(rb.to.winOut[k]-toPrev) - int64(rb.from.winOut[k]-fromPrev)
		fromPrev, toPrev = rb.from.winOut[k], rb.to.winOut[k]
		total += d
	}
	se.total.Tuples += total
	se.last.Tuples += d
	n.work.Tuples += total
}

// adopt moves the executor onto the state-identical new subplan sub: each
// node takes its counterpart operator (pair), and everything else — operator
// instances, input sources, the output log and all accumulated work —
// carries over untouched.
func (se *SubplanExec) adopt(sub *mqo.Subplan) {
	for i, o := range se.pair(sub) {
		se.nodes[i].op = o
	}
	se.Sub = sub
}

// pair lists the member operators of sub, a subplan whose member tree has
// the executor's shape, in node order: sub's pre-order list.
func (se *SubplanExec) pair(sub *mqo.Subplan) []*mqo.Op {
	ops := make([]*mqo.Op, len(se.nodes))
	ops[0] = sub.Root
	for i, n := range se.nodes { // parents before children
		for slot, k := range n.kids {
			if k >= 0 {
				ops[k] = ops[i].Children[slot]
			}
		}
	}
	return ops
}

// setReplayLimits caps every input at window k's marks: scans at the table
// log's length at the seal (zero if the table had not arrived yet), sources
// over child subplans at the child executor's window-k end. k < 0 removes
// the caps, so post-graft execution reads freely.
func (se *SubplanExec) setReplayLimits(g *mqo.Graph, marks map[string]int, execs []*SubplanExec, k int) {
	for _, n := range se.nodes {
		if s, ok := n.x.(*scanExec); ok {
			s.limit = -1
			if k >= 0 {
				s.limit = marks[n.op.Table.Name]
			}
		}
		for slot, kid := range n.kids {
			switch {
			case kid >= 0:
			case k < 0:
				n.srcs[slot].setLimit(-1)
			default:
				n.srcs[slot].setLimit(execs[g.SubplanOf(n.op.Children[slot]).ID].winEnd[k])
			}
		}
	}
}
