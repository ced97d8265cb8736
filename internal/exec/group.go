package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// RunGroup is the one firing-group executor: Run, RunParallel, the scheduler
// runtime and Session all execute a window by calling it once per group of
// firings due at the same arrival fraction (the caller has already made that
// fraction's data arrive). The group's subplans run in dependency waves —
// subplans at the same depth never feed each other — each wave on up to
// n ≥ 1 goroutines; spawned workers carry the pprof labels phase and
// subplan. The returned Work is positionally aligned with group. A non-nil
// walls, also aligned, receives each firing's measured wall nanoseconds
// (captured on the executing goroutine); nil skips the clock reads.
//
// A panicking operator does not take the process down: each firing recovers
// its own panic, the wave it belongs to still finishes, and RunGroup returns
// the works so far and an error naming the subplan (the first in wave, then
// group, order — the same one at any n) without starting the next wave.
// Operator state is then half-applied, so the runner keeps that first
// failure (Err): every later RunGroup — and so Run, RunParallel and the
// drivers above them — and Graft runs nothing and returns an error wrapping
// it.
func (r *Runner) RunGroup(group []Firing, n int, phase string, walls []int64) ([]Work, error) {
	if r.err != nil {
		return nil, r.failed()
	}
	works := make([]Work, len(group))
	if len(group) == 1 {
		r.err = r.fire(group, 0, works, walls)
		return works, r.err
	}
	for _, d := range r.depths {
		r.byDepth[d] = r.byDepth[d][:0]
	}
	r.depths = r.depths[:0]
	for i, f := range group {
		d := r.depth[f.Subplan]
		if len(r.byDepth[d]) == 0 {
			r.depths = append(r.depths, d)
		}
		r.byDepth[d] = append(r.byDepth[d], i)
	}
	sort.Ints(r.depths)
	errs := make([]error, len(group))
	for _, d := range r.depths {
		wave := r.byDepth[d]
		if n == 1 || len(wave) == 1 {
			for _, i := range wave {
				errs[i] = r.fire(group, i, works, walls)
			}
		} else {
			sem := make(chan struct{}, n)
			var wg sync.WaitGroup
			for _, i := range wave {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					// Label the worker so CPU profiles attribute samples to
					// the driver and the subplan (pprof tag filtering).
					pprof.Do(context.Background(), pprof.Labels("phase", phase, "subplan", strconv.Itoa(group[i].Subplan)), func(context.Context) {
						errs[i] = r.fire(group, i, works, walls)
					})
				}(i)
			}
			wg.Wait()
		}
		for _, i := range wave {
			if errs[i] != nil {
				r.err = errs[i]
				return works, r.err
			}
		}
	}
	return works, nil
}

// Err returns the first failed firing group's error; nil while none failed.
func (r *Runner) Err() error { return r.err }

// failed wraps Err for the calls a failed runner refuses.
func (r *Runner) failed() error { return fmt.Errorf("exec: runner failed earlier: %w", r.err) }

// fire runs group[i] through the reuse gate into works[i] (and walls[i]),
// turning a panic anywhere below into an error.
func (r *Runner) fire(group []Firing, i int, works []Work, walls []int64) error {
	id := group[i].Subplan
	return guard(id, func() {
		var t0 time.Time
		if walls != nil {
			t0 = time.Now()
		}
		works[i] = r.runOnce(id)
		if walls != nil {
			walls[i] = time.Since(t0).Nanoseconds()
		}
	})
}

// guard runs f, an execution of subplan id, turning a panic into an error
// naming the subplan.
func guard(id int, f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exec: subplan %d panicked: %v", id, p)
		}
	}()
	f()
	return nil
}

// indexGraph derives what the runner keeps per plan revision (construction
// and every Graft): each subplan's scan cone (reuse.go) and its dependency
// depth — 1 + the deepest child's, so subplans at one depth never feed each
// other and a depth level of a firing group forms a wave.
func (r *Runner) indexGraph() {
	r.computeLineage()
	r.depth = make([]int, len(r.Graph.Subplans))
	maxDepth := 0
	for _, s := range r.Graph.Subplans { // children-first order
		d := 0
		for _, c := range s.Children {
			if r.depth[c.ID]+1 > d {
				d = r.depth[c.ID] + 1
			}
		}
		r.depth[s.ID] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	r.byDepth = make([][]int, maxDepth+1)
	r.depths = r.depths[:0]
}
