package rm

import (
	"fmt"
	"math"

	"qosrm/internal/config"
	"qosrm/internal/perfmodel"
)

// allocate runs a fresh instance of the named policy into a new
// settings slice, as a one-shot caller would.
func allocate(name string, curves []*Curve, totalWays int) ([]config.Setting, bool) {
	p, err := NewPolicy(name)
	if err != nil {
		panic(err)
	}
	out := make([]config.Setting, len(curves))
	if !p.Allocate(curves, totalWays, out) {
		return nil, false
	}
	return out, true
}

// totalEnergy sums the curve energies of a way distribution; it returns
// +Inf if any allocation is infeasible. Tests compare optimiser outputs
// with it.
func totalEnergy(curves []*Curve, settings []config.Setting) float64 {
	total := 0.0
	for i, s := range settings {
		wi := s.Ways - config.MinWays
		if wi < 0 || wi >= perfmodel.NumWays {
			return math.Inf(1)
		}
		total += curves[i].Energy[wi]
	}
	return total
}

// policyEnergy is the total predicted energy of a policy's allocation
// on one curve set, +Inf when infeasible: the optimality gap the
// cheaper heuristics leave against "brute".
func policyEnergy(p Policy, curves []*Curve, totalWays int) float64 {
	out := make([]config.Setting, len(curves))
	if !p.Allocate(curves, totalWays, out) {
		return math.Inf(1)
	}
	return totalEnergy(curves, out)
}

// aggregate is the seed's reduction-tree node, kept for
// GlobalOptimizeReference.
type aggregate struct {
	lo, hi int // group covers cores lo..hi-1
	minW   int // smallest representable total allocation
	energy []float64
	// split[i] is, for total allocation minW+i, the number of ways given
	// to the left child group (meaningful only for inner nodes).
	split []int
	left  *aggregate
	right *aggregate
	// leafCurve is set on leaves.
	leafCurve *Curve
}

// GlobalOptimizeReference is the seed implementation of the global
// optimisation, retained verbatim as the equivalence baseline of
// Workspace.Optimize: it rebuilds the reduction tree with fresh
// allocations on every call. Tests assert the workspace path returns
// identical settings; BenchmarkGlobalOptimize8 times it.
func GlobalOptimizeReference(curves []*Curve, totalWays int) ([]config.Setting, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	if totalWays < n*config.MinWays || totalWays > n*config.MaxWays {
		panic(fmt.Sprintf("rm: %d ways cannot be split across %d cores", totalWays, n))
	}
	root := reduce(curves, 0, n)
	idx := totalWays - root.minW
	if idx < 0 || idx >= len(root.energy) || math.IsInf(root.energy[idx], 1) {
		return nil, false
	}
	out := make([]config.Setting, n)
	assign(root, totalWays, curves, out)
	return out, true
}

// reduce builds the reduction tree over curves[lo:hi].
func reduce(curves []*Curve, lo, hi int) *aggregate {
	if hi-lo == 1 {
		a := &aggregate{
			lo: lo, hi: hi,
			minW:      config.MinWays,
			energy:    make([]float64, perfmodel.NumWays),
			leafCurve: curves[lo],
		}
		copy(a.energy, curves[lo].Energy[:])
		return a
	}
	mid := (lo + hi) / 2
	l := reduce(curves, lo, mid)
	r := reduce(curves, mid, hi)
	return combine(l, r)
}

// combine merges two group curves: E(W) = min over wl+wr=W of
// El(wl)+Er(wr).
func combine(l, r *aggregate) *aggregate {
	a := &aggregate{
		lo: l.lo, hi: r.hi,
		minW:   l.minW + r.minW,
		left:   l,
		right:  r,
		energy: make([]float64, len(l.energy)+len(r.energy)-1),
		split:  make([]int, len(l.energy)+len(r.energy)-1),
	}
	for i := range a.energy {
		a.energy[i] = math.Inf(1)
		a.split[i] = -1
	}
	for li, le := range l.energy {
		if math.IsInf(le, 1) {
			continue
		}
		for ri, re := range r.energy {
			if math.IsInf(re, 1) {
				continue
			}
			i := li + ri
			if e := le + re; e < a.energy[i] {
				a.energy[i] = e
				a.split[i] = l.minW + li
			}
		}
	}
	return a
}

// assign walks the reduction tree distributing the granted total.
func assign(a *aggregate, total int, curves []*Curve, out []config.Setting) {
	if a.leafCurve != nil {
		out[a.lo] = a.leafCurve.Pick[total-config.MinWays]
		return
	}
	leftW := a.split[total-a.minW]
	if leftW < 0 {
		panic("rm: backtracking through infeasible aggregate")
	}
	assign(a.left, leftW, curves, out)
	assign(a.right, total-leftW, curves, out)
}
