package rm

import (
	"math"

	"qosrm/internal/config"
)

// greedyAllocate is a marginal-utility alternative to the paper's
// optimal pairwise reduction: starting from the minimum allocation per
// core, it repeatedly grants one way to the core whose energy curve
// improves the most. This is the classic greedy partitioning heuristic
// (lookahead-free UCP); it is cheaper — O(A·n) versus O(n·A²) — but only
// optimal when all curves are convex. The ablation quantifies the energy
// it leaves on the table.
//
// It writes into caller-provided buffers (len(alloc) == len(curves),
// len(out) ≥ len(curves)) so the policy layer can run it allocation-free
// per invocation. It returns false when even the starting minimum
// allocation is infeasible for some core (an infeasible Energy[0] entry
// with no feasible path upward).
func greedyAllocate(curves []*Curve, totalWays int, alloc []int, out []config.Setting) bool {
	n := len(curves)
	remaining := totalWays - n*config.MinWays
	if remaining < 0 {
		return false
	}
	for i := range alloc {
		alloc[i] = config.MinWays
	}
	// Grant ways one at a time to the core with the best marginal gain.
	// Infinite-energy positions get -Inf gain unless the step escapes
	// infeasibility, which is always worth taking.
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, math.Inf(-1)
		for i := range curves {
			if alloc[i] >= config.MaxWays {
				continue
			}
			cur := curves[i].Energy[alloc[i]-config.MinWays]
			next := curves[i].Energy[alloc[i]+1-config.MinWays]
			var gain float64
			switch {
			case math.IsInf(cur, 1) && !math.IsInf(next, 1):
				gain = math.Inf(1) // escaping infeasibility dominates
			case math.IsInf(next, 1):
				gain = math.Inf(-1)
			default:
				gain = cur - next
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return false
		}
		alloc[best]++
	}
	for i, w := range alloc {
		if math.IsInf(curves[i].Energy[w-config.MinWays], 1) {
			return false
		}
		out[i] = curves[i].Pick[w-config.MinWays]
	}
	return true
}
