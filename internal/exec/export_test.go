package exec

import (
	"math"
	"testing"
)

// IndexRegimes runs f three times: at the shipped identity-index threshold,
// with every join entry indexed (threshold 0) and with the index off
// (threshold ∞, every state update walks). Nothing observable — results,
// Work, reports, traces — may depend on which; workloads too small to
// cross the shipped threshold only prove that when the regimes are forced.
func IndexRegimes(t *testing.T, f func(t *testing.T)) {
	for _, regime := range []struct {
		name      string
		threshold int32
	}{{"threshold=default", indexThreshold}, {"threshold=0", 0}, {"threshold=inf", math.MaxInt32}} {
		t.Run(regime.name, func(t *testing.T) {
			setRegime(t, regime.threshold)
			f(t)
		})
	}
}

// JoinStateStats sums, over the runner's live join arrangements, the
// entries held, the deltas physically applied and the entries the
// state-update walk compared — the test-only, noise-free measure of what
// the identity index saves.
func (r *Runner) JoinStateStats() (entries, applied, walked int64) {
	for _, a := range r.reg.live {
		if j, ok := a.(*joinArr); ok {
			entries += int64(j.arena.Len())
			applied += j.pos
			walked += j.walked
		}
	}
	return entries, applied, walked
}
