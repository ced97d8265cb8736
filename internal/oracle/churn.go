package oracle

import (
	"fmt"

	"ishare/internal/delta"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// ChurnPlan schedules online admissions and retirements over a windowed
// stream: each table's stream is split into Windows equal slices, and at the
// boundary before window k every query q with Retire[q] == k leaves the plan
// and every query with Admit[q] == k joins it (retirements first, so a
// same-boundary admit may reuse the freed slot). Admit[q] = 0 means present
// from the start; Retire[q] = -1 means the query serves until the end. Slots
// follow opt.Live's policy — lowest inactive slot first, never renumbered —
// so the differential harness exercises the same layouts the production
// admission path produces.
// ToggleShare lists window boundaries (in [1, Windows)) at which arrangement
// sharing is flipped on the live runner before that window's graft and
// ingest. Sharing is purely physical, so toggling it mid-churn must change
// nothing observable; each toggle boundary also re-checks the registry
// refcount invariant.
// ToggleReuse does the same for window-level result reuse: clean-cone
// skipping charges the modeled work a firing would have cost, so flipping
// it at any boundary must leave every result and the final work report
// untouched.
type ChurnPlan struct {
	Windows     int
	Admit       []int
	Retire      []int
	ToggleShare []int
	ToggleReuse []int
}

// activeIn reports whether query q is being served during window k.
func (cp *ChurnPlan) activeIn(q, k int) bool {
	return cp.Admit[q] <= k && (cp.Retire[q] == -1 || cp.Retire[q] > k)
}

func (cp *ChurnPlan) validate(nq int) error {
	if cp.Windows < 1 {
		return fmt.Errorf("churn: %d windows", cp.Windows)
	}
	if len(cp.Admit) != nq || len(cp.Retire) != nq {
		return fmt.Errorf("churn: %d admits / %d retires for %d queries", len(cp.Admit), len(cp.Retire), nq)
	}
	for q := 0; q < nq; q++ {
		if cp.Admit[q] < 0 || cp.Admit[q] >= cp.Windows {
			return fmt.Errorf("churn: query %d admitted at window %d of %d", q, cp.Admit[q], cp.Windows)
		}
		if cp.Retire[q] != -1 && (cp.Retire[q] <= cp.Admit[q] || cp.Retire[q] >= cp.Windows) {
			return fmt.Errorf("churn: query %d admitted at %d retired at %d", q, cp.Admit[q], cp.Retire[q])
		}
	}
	for _, k := range cp.ToggleShare {
		if k < 1 || k >= cp.Windows {
			return fmt.Errorf("churn: sharing toggle at window %d of %d", k, cp.Windows)
		}
	}
	for _, k := range cp.ToggleReuse {
		if k < 1 || k >= cp.Windows {
			return fmt.Errorf("churn: reuse toggle at window %d of %d", k, cp.Windows)
		}
	}
	for k := 0; k < cp.Windows; k++ {
		live := 0
		for q := 0; q < nq; q++ {
			if cp.activeIn(q, k) {
				live++
			}
		}
		if live == 0 {
			return fmt.Errorf("churn: window %d has no active query", k)
		}
	}
	return nil
}

// layouts returns the slot layout of each window under opt.Live's
// lowest-inactive-reuse policy, the slot of each query during each window
// (slotAt[k][q], -1 when inactive), and whether boundary k changes the
// layout.
func (cp *ChurnPlan) layouts(queries []plan.Query) (layouts [][]plan.Query, slotAt [][]int, events []bool) {
	layouts, slotAt, events = make([][]plan.Query, cp.Windows), make([][]int, cp.Windows), make([]bool, cp.Windows)
	var slots []plan.Query
	slotOf := make([]int, len(queries))
	for q := range slotOf {
		slotOf[q] = -1
	}
	for k := 0; k < cp.Windows; k++ {
		for q := range queries {
			if cp.Retire[q] == k {
				slots[slotOf[q]] = plan.Query{}
				slotOf[q] = -1
				events[k] = true
			}
		}
		for q := range queries {
			if cp.Admit[q] != k {
				continue
			}
			slot := -1
			for i := range slots {
				if slots[i].Root == nil {
					slot = i
					break
				}
			}
			if slot == -1 {
				slots = append(slots, plan.Query{})
				slot = len(slots) - 1
			}
			slots[slot] = queries[q]
			slotOf[q] = slot
			events[k] = true
		}
		layouts[k] = append([]plan.Query(nil), slots...)
		slotAt[k] = append([]int(nil), slotOf...)
	}
	return layouts, slotAt, events
}

// checkChurn is the online-admission differential pass: the workload's churn
// schedule is driven through the live engine twice — once with state
// transplant enabled and once with every subplan force-rebuilt and replayed
// (GraftOptions.DisableTransplant) — and each run must satisfy two oracles:
//
//  1. After every window, every live query's results equal the naive oracle
//     evaluated over the stream prefix ingested so far — an admitted query
//     observes the stream from genesis, exactly as if it had been present
//     before the first window.
//  2. At the end, the run's modeled-work report is byte-identical to a
//     from-scratch batch engine serving the final slot layout over the same
//     windows. Transplant and replay are both compared to the same
//     reference, which also proves them identical to each other: carrying
//     state across a graft must be observationally indistinguishable from
//     rebuilding it.
//
// Every graft's statistics must also add up (graftAccounting). Each
// transplant-mode graft's reattachments are added to *reattached when it is
// non-nil.
func checkChurn(w *Workload, queries []plan.Query, data exec.DeltaDataset, reattached *int) (*Mismatch, error) {
	cp := w.Churn
	if err := cp.validate(len(queries)); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	W := cp.Windows

	winData := func(k int) exec.DeltaDataset {
		out := make(exec.DeltaDataset, len(data))
		for name, ts := range data {
			out[name] = ts[len(ts)*k/W : len(ts)*(k+1)/W]
		}
		return out
	}
	prefixTables := func(k int) map[string][]value.Row {
		pre := make(map[string][]delta.Tuple, len(data))
		for name, ts := range data {
			pre[name] = ts[:len(ts)*(k+1)/W]
		}
		return FinalTables(pre)
	}

	layouts, slotAt, events := cp.layouts(queries)

	build := func(qs []plan.Query) (*mqo.Graph, error) {
		sp, err := mqo.BuildWithOptions(qs, mqo.BuildOptions{})
		if err != nil {
			return nil, err
		}
		return mqo.Extract(sp)
	}
	runWindow := func(r *exec.Runner, g *mqo.Graph, k int) {
		r.StartWindow(winData(k))
		r.ArriveWindow(1, 1)
		for id := 0; id < len(g.Subplans); id++ {
			r.RunSubplan(id)
		}
	}

	// From-scratch reference: the final slot layout, present from genesis,
	// driven over the same windows.
	finalG, err := build(layouts[W-1])
	if err != nil {
		return nil, fmt.Errorf("oracle: churn: final build: %w", err)
	}
	ref, err := exec.NewDeltaRunner(finalG, exec.DeltaDataset{})
	if err != nil {
		return nil, fmt.Errorf("oracle: churn: final runner: %w", err)
	}
	for k := 0; k < W; k++ {
		runWindow(ref, finalG, k)
	}
	refReport := ref.ReportNow()

	for _, disable := range []bool{false, true} {
		mode := "transplant"
		if disable {
			mode = "replay"
		}
		g, err := build(layouts[0])
		if err != nil {
			return nil, fmt.Errorf("oracle: churn/%s: initial build: %w", mode, err)
		}
		runner, err := exec.NewDeltaRunner(g, exec.DeltaDataset{})
		if err != nil {
			return nil, fmt.Errorf("oracle: churn/%s: runner: %w", mode, err)
		}
		// leak reports a registry refcount violation: every arrangement
		// handle a live executor holds must be counted by exactly one
		// registry ref, with zero arrangements retained past their sharers.
		leak := func(k int, when string) *Mismatch {
			if err := runner.CheckArrangements(); err != nil {
				return &Mismatch{
					Config: fmt.Sprintf("churn/%s/window=%d/%s/toggle=%v/reuseToggle=%v", mode, k, when, cp.ToggleShare, cp.ToggleReuse),
					Query:  -1,
					SQL:    "arrangement refcount invariant",
					Got:    []string{err.Error()},
					Want:   []string{"registry refs match executor handles"},
				}
			}
			return nil
		}
		var opts exec.Options // the runner starts at the defaults
		toggles := make(map[int]int, len(cp.ToggleShare))
		for _, tk := range cp.ToggleShare {
			toggles[tk]++
		}
		reuseToggles := make(map[int]int, len(cp.ToggleReuse))
		for _, tk := range cp.ToggleReuse {
			reuseToggles[tk]++
		}
		for k := 0; k < W; k++ {
			// Sharing and reuse toggles apply at the boundary, before the
			// graft, so a revision's fresh executors attach under the
			// flipped mode.
			if toggles[k]%2 == 1 {
				opts.NoShare = !opts.NoShare
			}
			if reuseToggles[k]%2 == 1 {
				opts.NoReuse = !opts.NoReuse
			}
			runner.SetOptions(opts)
			if k > 0 && events[k] {
				ng, err := build(layouts[k])
				if err != nil {
					return nil, fmt.Errorf("oracle: churn/%s: build at window %d: %w", mode, k, err)
				}
				gs, err := runner.Graft(ng, exec.GraftOptions{DisableTransplant: disable})
				if err != nil {
					return nil, fmt.Errorf("oracle: churn/%s: graft at window %d: %w", mode, k, err)
				}
				if bad := graftAccounting(gs, len(g.Subplans), len(ng.Subplans), k, disable); bad != "" {
					return &Mismatch{
						Config: fmt.Sprintf("churn/%s/window=%d/admit=%v/retire=%v", mode, k, cp.Admit, cp.Retire),
						Query:  -1,
						SQL:    "graft accounting",
						Got:    []string{fmt.Sprintf("%+v: %s", *gs, bad)},
						Want:   []string{"every new subplan adopted or rebuilt, every old one adopted or dropped, one replay per rebuilt subplan and sealed window"},
					}, nil
				}
				if reattached != nil {
					*reattached += gs.Reattached
				}
				g = ng
				if m := leak(k, "graft"); m != nil {
					return m, nil
				}
			}
			runWindow(runner, g, k)
			if m := leak(k, "window"); m != nil {
				return m, nil
			}
			tables := prefixTables(k)
			for q := range queries {
				if !cp.activeIn(q, k) {
					continue
				}
				got := Canon(runner.Results(slotAt[k][q]))
				wantQ := Canon(Eval(queries[q].Root, tables, nil))
				if !eqStrings(got, wantQ) {
					return &Mismatch{
						Config: fmt.Sprintf("churn/%s/window=%d/admit=%v/retire=%v/toggle=%v/reuseToggle=%v", mode, k, cp.Admit, cp.Retire, cp.ToggleShare, cp.ToggleReuse),
						Query:  q, SQL: w.SQL[q], Got: got, Want: wantQ,
					}, nil
				}
			}
		}
		if diff := reportDiff(refReport, runner.ReportNow()); diff != "" {
			return &Mismatch{
				Config: fmt.Sprintf("churn/%s/admit=%v/retire=%v/toggle=%v/reuseToggle=%v", mode, cp.Admit, cp.Retire, cp.ToggleShare, cp.ToggleReuse),
				Query:  -1,
				SQL:    "modeled work must match a from-scratch run of the final plan",
				Got:    []string{diff},
				Want:   []string{"report identical to from-scratch batch over the same windows"},
			}, nil
		}
	}
	return nil, nil
}

// graftAccounting checks one graft's statistics against the plan sizes
// before (oldN subplans) and after (newN) and the windows sealed so far,
// and returns what does not add up ("" when everything does).
func graftAccounting(gs *exec.GraftStats, oldN, newN, sealed int, disable bool) string {
	switch {
	case gs.Adopted+gs.Rebuilt != newN:
		return fmt.Sprintf("adopted + rebuilt != %d new subplans", newN)
	case gs.Dropped != oldN-gs.Adopted:
		return fmt.Sprintf("dropped != %d old subplans - adopted", oldN)
	case gs.Reattached > gs.Adopted:
		return "reattached > adopted"
	case gs.Replayed != gs.Rebuilt*sealed:
		return fmt.Sprintf("replayed != rebuilt × %d sealed windows", sealed)
	case disable && !exec.DebugGraftLooseMatch && gs.Adopted != 0:
		return "adopted under DisableTransplant"
	case len(gs.AdoptedFrom) != newN:
		return fmt.Sprintf("adopted-from map has %d entries for %d new subplans", len(gs.AdoptedFrom), newN)
	}
	taken := make(map[int]bool)
	for _, o := range gs.AdoptedFrom {
		if o < 0 {
			continue
		}
		if o >= oldN || taken[o] {
			return fmt.Sprintf("adopted-from map names old subplan %d out of range or twice", o)
		}
		taken[o] = true
	}
	if len(taken) != gs.Adopted {
		return fmt.Sprintf("adopted-from map adopts %d old subplans, adopted %d", len(taken), gs.Adopted)
	}
	return ""
}
