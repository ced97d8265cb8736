package exec

import (
	"fmt"
	"sort"
	"time"
)

// Firing is one scheduled incremental execution inside a trigger window: the
// Index-th of Pace executions of a subplan, due when Index/Pace of the
// window has elapsed (and Index/Pace of the window's data has arrived).
type Firing struct {
	// Subplan is the subplan id to execute.
	Subplan int
	// Index and Pace: this is the Index-th of Pace executions (1-based).
	Index, Pace int
}

// Final reports whether this is the subplan's trigger-point execution (the
// one whose work is the query-latency proxy).
func (f Firing) Final() bool { return f.Index == f.Pace }

// Offset is the firing's due time after the start of a window of the given
// length. Every final firing lands exactly at the window end.
func (f Firing) Offset(window time.Duration) time.Duration {
	return time.Duration(int64(window) * int64(f.Index) / int64(f.Pace))
}

// SameFraction reports whether two firings are due at the same arrival
// fraction (exact rational comparison, so pace 2's halfway firing coincides
// with pace 4's second).
func SameFraction(a, b Firing) bool { return a.Index*b.Pace == b.Index*a.Pace }

// GroupEnd returns the end of the firing group starting at fs[lo]: the
// index past the last firing due at the same fraction as fs[lo].
func GroupEnd(fs []Firing, lo int) int {
	hi := lo + 1
	for hi < len(fs) && SameFraction(fs[lo], fs[hi]) {
		hi++
	}
	return hi
}

// Schedule translates a pace vector into one trigger window's firing
// sequence — the one firing order every driver of a Runner follows: subplan
// i with pace p fires p times, at fractions j/p of the window, ordered by
// due fraction (exact rational comparison) and by subplan id within a
// fraction, which is children first. The final firing of every subplan
// lands exactly at the window end (the trigger point), so a driver that
// runs the sequence to completion always consumes the whole window's data.
func Schedule(paces []int) ([]Firing, error) {
	n := 0
	for i, p := range paces {
		if p < 1 {
			return nil, fmt.Errorf("exec: subplan %d has pace %d < 1", i, p)
		}
		n += p
	}
	fs := make([]Firing, 0, n)
	for i, p := range paces {
		for j := 1; j <= p; j++ {
			fs = append(fs, Firing{Subplan: i, Index: j, Pace: p})
		}
	}
	sort.Slice(fs, func(a, b int) bool {
		l, r := fs[a].Index*fs[b].Pace, fs[b].Index*fs[a].Pace
		if l != r {
			return l < r
		}
		return fs[a].Subplan < fs[b].Subplan
	})
	return fs, nil
}
