package rm

import (
	"math"

	"qosrm/internal/config"
)

// BruteForceGlobalOptimize enumerates every way distribution and returns
// the energy-optimal one. It is the "brute" policy: an optimality
// reference for the pairwise reduction (Workspace.Optimize) that also
// demonstrates the complexity gap the paper's recursive reduction
// closes: enumeration is O(15ⁿ) in the core count, the pairwise
// reduction O(n·A²) (Section III-A: "polynomial time complexity with
// respect to the number of cores").
//
// It is exponential; callers should keep n small (tests use n ≤ 4).
func BruteForceGlobalOptimize(curves []*Curve, totalWays int) ([]config.Setting, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	best := math.Inf(1)
	alloc := make([]int, n)
	bestAlloc := make([]int, n)
	found := false

	var walk func(core, remaining int, energy float64)
	walk = func(core, remaining int, energy float64) {
		if energy >= best {
			return // prune: energies are non-negative
		}
		if core == n-1 {
			// The last core takes whatever remains.
			if remaining < config.MinWays || remaining > config.MaxWays {
				return
			}
			e := curves[core].Energy[remaining-config.MinWays]
			if math.IsInf(e, 1) || energy+e >= best {
				return
			}
			alloc[core] = remaining
			best = energy + e
			copy(bestAlloc, alloc)
			found = true
			return
		}
		// Remaining cores bound the feasible range for this one.
		rest := n - core - 1
		lo := remaining - rest*config.MaxWays
		if lo < config.MinWays {
			lo = config.MinWays
		}
		hi := remaining - rest*config.MinWays
		if hi > config.MaxWays {
			hi = config.MaxWays
		}
		for w := lo; w <= hi; w++ {
			e := curves[core].Energy[w-config.MinWays]
			if math.IsInf(e, 1) {
				continue
			}
			alloc[core] = w
			walk(core+1, remaining-w, energy+e)
		}
	}
	walk(0, totalWays, 0)
	if !found {
		return nil, false
	}
	out := make([]config.Setting, n)
	for i, w := range bestAlloc {
		out[i] = curves[i].Pick[w-config.MinWays]
	}
	return out, true
}
