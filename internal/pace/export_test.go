package pace

import (
	"ishare/internal/cost"
	"ishare/internal/mqo"
)

// Missed, MayScore and ChainCandidates expose the greedy's pruning rule and
// its chain candidates to the tests that replay a search.
func (o *Optimizer) Missed(e cost.Eval) mqo.Bitset { return o.missed(e) }

func (o *Optimizer) MayScore(i int, missed mqo.Bitset) bool { return o.mayScore(i, missed) }

func (o *Optimizer) ChainCandidates(p []int) []int {
	s := &search{o: o, p: append([]int(nil), p...)}
	s.chainCandidates()
	return s.ids
}
