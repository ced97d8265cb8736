package exec

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestScheduleOrderAndOffsets(t *testing.T) {
	fs, err := Schedule([]int{2, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 7 {
		t.Fatalf("%d firings, want 7", len(fs))
	}
	// Due fractions: sub1 at 1/4, {sub0, sub1} at 1/2, sub1 at 3/4, and
	// {sub0, sub1, sub2} at 1 — subplan id breaks ties within a fraction.
	wantSub := []int{1, 0, 1, 1, 0, 1, 2}
	wantOff := []time.Duration{
		250 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond,
		750 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, f := range fs {
		if f.Subplan != wantSub[i] || f.Offset(time.Second) != wantOff[i] {
			t.Errorf("firing %d = sub %d @ %v, want sub %d @ %v",
				i, f.Subplan, f.Offset(time.Second), wantSub[i], wantOff[i])
		}
	}
	if !fs[6].Final() || fs[2].Final() {
		t.Errorf("Final flags wrong: %+v", fs)
	}
	if !SameFraction(fs[1], fs[2]) || SameFraction(fs[0], fs[1]) {
		t.Errorf("SameFraction wrong around the 1/2 group")
	}
	wantEnds := []int{1, 3, 3, 4, 7, 7, 7}
	for lo, want := range wantEnds {
		if got := GroupEnd(fs, lo); got != want {
			t.Errorf("GroupEnd(fs, %d) = %d, want %d", lo, got, want)
		}
	}
}

func TestScheduleEveryFinalAtWindowEnd(t *testing.T) {
	const window = 3 * time.Second
	fs, err := Schedule([]int{3, 7, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	finals := map[int]bool{}
	for _, f := range fs {
		if f.Final() {
			if f.Offset(window) != window {
				t.Errorf("final firing of subplan %d at %v, want %v", f.Subplan, f.Offset(window), window)
			}
			finals[f.Subplan] = true
		}
	}
	if len(finals) != 4 {
		t.Errorf("finals for %d subplans, want 4", len(finals))
	}
}

func TestScheduleRejectsBadPace(t *testing.T) {
	if _, err := Schedule([]int{2, 0}); err == nil {
		t.Error("pace 0 accepted")
	}
}

// legacyEvent is exec.Run's event type as it stood while Run sorted its own
// events and pace.ScheduleWindow sorted the scheduler's: subplan sub fires
// when j/p of the window has arrived, ordered by exact rational fraction,
// then subplan id.
type legacyEvent struct{ sub, j, p int }

func (e legacyEvent) less(o legacyEvent) bool {
	l, r := e.j*o.p, o.j*e.p
	if l != r {
		return l < r
	}
	return e.sub < o.sub
}

// TestScheduleMatchesLegacyEventOrder pins the single firing order to the
// order Run's private event sort produced, on random pace vectors: had the
// two copies ever diverged, collapsing them would have changed which
// firing sees which data.
func TestScheduleMatchesLegacyEventOrder(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		paces := make([]int, 1+r.Intn(12))
		for i := range paces {
			paces[i] = 1 + r.Intn(60)
		}
		var events []legacyEvent
		for i, p := range paces {
			for j := 1; j <= p; j++ {
				events = append(events, legacyEvent{sub: i, j: j, p: p})
			}
		}
		sort.Slice(events, func(a, b int) bool { return events[a].less(events[b]) })

		fs, err := Schedule(paces)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != len(events) {
			t.Fatalf("paces %v: %d firings, want %d", paces, len(fs), len(events))
		}
		for i, e := range events {
			if f := fs[i]; f.Subplan != e.sub || f.Index != e.j || f.Pace != e.p {
				t.Fatalf("paces %v: firing %d = %+v, legacy order has %+v", paces, i, f, e)
			}
		}
		for lo := 0; lo < len(fs); {
			hi := GroupEnd(fs, lo)
			for k := lo + 1; k < hi; k++ {
				if fs[k].Subplan <= fs[k-1].Subplan {
					t.Fatalf("paces %v: group [%d,%d) not in ascending subplan order", paces, lo, hi)
				}
			}
			if hi < len(fs) && SameFraction(fs[lo], fs[hi]) {
				t.Fatalf("paces %v: group [%d,%d) ends early", paces, lo, hi)
			}
			lo = hi
		}
	}
}
