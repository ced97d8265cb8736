package decompose

import "ishare/internal/mqo"

// Cluster finds a split of the subplan's query set with the paper's greedy
// clustering: start with every query in its own partition at its selected
// pace, then repeatedly merge the pair with the highest positive sharing
// benefit. Selected-pace searches after a merge resume from the larger of
// the merged partitions' paces (the monotonicity observation in §4.1.2).
func Cluster(lp *LocalProblem) []Partition {
	var parts []Partition
	for _, q := range lp.Sub.Queries.Members() {
		parts = append(parts, lp.SelectedPace(mqo.Bit(q), 1))
	}
	for len(parts) > 1 {
		bestI, bestJ := -1, -1
		bestBenefit := 0.0
		var bestMerged Partition
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				merged := lp.SelectedPace(parts[i].Queries.Union(parts[j].Queries), max(parts[i].Pace, parts[j].Pace))
				benefit := parts[i].Total + parts[j].Total - merged.Total
				if benefit > bestBenefit {
					bestI, bestJ, bestBenefit, bestMerged = i, j, benefit, merged
				}
			}
		}
		if bestI == -1 {
			break
		}
		parts[bestI] = bestMerged
		parts = append(parts[:bestJ], parts[bestJ+1:]...)
	}
	return parts
}

// BruteForce enumerates every set partition of the subplan's query set
// (Bell-number many) and returns the one with the lowest summed partial
// local total work under selected paces. It is the paper's comparison
// baseline for Figures 14 and 16; callers should cap the query count.
func BruteForce(lp *LocalProblem) []Partition {
	queries := lp.Sub.Queries.Members()
	var best []Partition
	bestTotal := 0.0
	first := true

	var assign func(i int, groups []mqo.Bitset)
	assign = func(i int, groups []mqo.Bitset) {
		if i == len(queries) {
			var parts []Partition
			total := 0.0
			for _, g := range groups {
				p := lp.SelectedPace(g, 1)
				parts = append(parts, p)
				total += p.Total
			}
			if first || total < bestTotal {
				first = false
				bestTotal = total
				best = parts
			}
			return
		}
		q := queries[i]
		for gi := range groups {
			groups[gi] = groups[gi].With(q)
			assign(i+1, groups)
			groups[gi] = groups[gi].Minus(mqo.Bit(q))
		}
		assign(i+1, append(groups, mqo.Bit(q)))
	}
	assign(0, nil)
	return best
}

// SplitTotal sums the partitions' partial local total work.
func SplitTotal(parts []Partition) float64 {
	var t float64
	for _, p := range parts {
		t += p.Total
	}
	return t
}
