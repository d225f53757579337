package rm

import (
	"fmt"
	"math"

	"qosrm/internal/config"
	"qosrm/internal/perfmodel"
)

// Workspace runs the global optimisation: it reduces the per-core
// energy curves pairwise until a single curve remains (Figure 3), then
// backtracks the way split that minimises Σ E_j(w_j) subject to
// Σ w_j = totalWays and MinWays ≤ w_j ≤ MaxWays.
//
// The reduction is the paper's polynomial-complexity scheme. Combining
// curves of lengths a and b costs a·b steps, and a group of k cores has
// a curve of k(L−1)+1 entries for per-core curves of length L, so
// reducing n cores costs O((nL)²), half of it in the root's combine.
// Only one entry of the root's curve is ever read, E(totalWays), so the
// Workspace never builds that curve: it scans the root's two children
// for that one total in O(nL). Across calls it also recombines only the
// inner nodes above a core whose curve changed, one per tree level. For
// 8 cores and L = 15, the seed reduction (GlobalOptimizeReference in
// the package's tests) takes 5831 steps, a full Workspace reduction
// 2631 and a call after one core's curve changed 1115. The Workspace
// also walks only each curve's finite window, the entries between its
// first and last finite one, so L is in effect the window's length:
// about 10 of 15 on the co-simulator's curves, and 1 for a pinned core.
// With 10 finite entries per core, the call after one change combines
// 100 + 361 steps instead of 225 + 841.
//
// The workspace is a reusable arena: node energies, split tables and
// the tree structure are allocated once per core count and overwritten
// in place, so the per-interval invocations of the co-simulator run
// allocation-free.
//
// The tree is also a memo of the previous call. Every leaf keeps a copy
// of the energies it last saw, and an inner node recombines only when
// one of its children changed. A leaf has changed when any entry's bit
// pattern differs from its copy, so callers may mutate a curve in place
// or pass a new one between calls. The contract is that the result
// depends only on the curves' contents and totalWays, never on the
// history of calls. A Workspace is not safe for concurrent use; its
// zero value is ready.
type Workspace struct {
	n int
	// stale forces every node to be recomputed on the next call: the
	// tree was just rebuilt, or the last call stopped half way.
	stale bool
	nodes []wsNode
}

// wsNode is one aggregate of the reduction tree: a reduced energy curve
// over cores lo..hi-1 plus the split table needed to backtrack.
type wsNode struct {
	lo, hi      int
	minW        int // smallest representable total allocation
	left, right int // child node indices; -1 on leaves
	// energy is, on a leaf, the copy of its core's energies from the
	// last call and, on an inner node, the combination of its children.
	// The root keeps no curve.
	energy []float64
	// split[i] is, for total allocation minW+i, the number of ways given
	// to the left child group (inner nodes below the root only).
	split []int
	// energy[flo:fhi] is the finite window: every entry outside it is
	// +Inf, so combines and the root solve walk only the window (empty
	// when flo == fhi). Entries inside it may still be +Inf.
	flo, fhi int
	// changed reports that energy differs from the previous call's.
	changed bool
}

// Optimize writes the chosen setting per core (the Pick entry of each
// curve at the granted allocation) into out (len ≥ len(curves)),
// reusing the workspace's reduction tree. It returns false when no
// feasible distribution exists, which cannot happen while the baseline
// setting itself is feasible for every core. The computation — combine
// order, iteration order, tie-breaking — replicates the seed reduction
// exactly, so the chosen settings are identical to the seed
// implementation's (enforced by TestWorkspaceMatchesReference and
// FuzzWorkspaceOptimize).
func (ws *Workspace) Optimize(curves []*Curve, totalWays int, out []config.Setting) bool {
	n := len(curves)
	if n == 0 {
		return false
	}
	if totalWays < n*config.MinWays || totalWays > n*config.MaxWays {
		panic(fmt.Sprintf("rm: %d ways cannot be split across %d cores", totalWays, n))
	}
	if n == 1 {
		// A single core takes every way; there is nothing to reduce.
		wi := totalWays - config.MinWays
		if math.IsInf(curves[0].Energy[wi], 1) {
			return false
		}
		out[0] = curves[0].Pick[wi]
		return true
	}
	ws.ensure(n)

	// Refresh the tree bottom-up; nodes are stored in post order, so
	// children always precede their parents. The tree counts as stale
	// until the refresh completes, so a call that panics half way (a nil
	// curve) leaves no node the next call would wrongly trust.
	stale := ws.stale
	ws.stale = true
	root := len(ws.nodes) - 1
	for i := range ws.nodes[:root] {
		nd := &ws.nodes[i]
		if nd.left < 0 {
			e := curves[nd.lo].Energy[:]
			nd.changed = stale || !sameBits(nd.energy, e)
			if nd.changed {
				copy(nd.energy, e)
				nd.flo, nd.fhi = finiteWindow(e)
			}
			continue
		}
		nd.changed = ws.nodes[nd.left].changed || ws.nodes[nd.right].changed
		if nd.changed {
			combineInto(nd, &ws.nodes[nd.left], &ws.nodes[nd.right])
		}
	}
	ws.stale = false

	rt := &ws.nodes[root]
	leftW := ws.splitRoot(rt, totalWays)
	if leftW < 0 {
		return false
	}
	ws.assign(rt.left, leftW, curves, out)
	ws.assign(rt.right, totalWays-leftW, curves, out)
	return true
}

// sameBits reports whether a and b hold the same bit patterns, so an
// unchanged leaf holds exactly the energies a full rebuild would copy
// (by value, a NaN never equals itself and -0 equals 0).
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// finiteWindow returns the smallest range [lo, hi) of e outside which
// every entry is +Inf (lo == hi when all are).
func finiteWindow(e []float64) (lo, hi int) {
	hi = len(e)
	for lo < hi && math.IsInf(e[lo], 1) {
		lo++
	}
	for hi > lo && math.IsInf(e[hi-1], 1) {
		hi--
	}
	return lo, hi
}

// ensure (re)builds the tree structure for n ≥ 2 cores; buffers are
// reused while n is stable.
func (ws *Workspace) ensure(n int) {
	if ws.n == n {
		return
	}
	ws.n = n
	ws.stale = true
	ws.nodes = ws.nodes[:0]
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		if hi-lo == 1 {
			ws.nodes = append(ws.nodes, wsNode{
				lo: lo, hi: hi,
				minW:   config.MinWays,
				left:   -1,
				right:  -1,
				energy: make([]float64, perfmodel.NumWays),
			})
			return len(ws.nodes) - 1
		}
		mid := (lo + hi) / 2
		l := build(lo, mid)
		r := build(mid, hi)
		nd := wsNode{
			lo: lo, hi: hi,
			minW:  ws.nodes[l].minW + ws.nodes[r].minW,
			left:  l,
			right: r,
		}
		if hi-lo < n {
			length := len(ws.nodes[l].energy) + len(ws.nodes[r].energy) - 1
			nd.energy = make([]float64, length)
			nd.split = make([]int, length)
		}
		ws.nodes = append(ws.nodes, nd)
		return len(ws.nodes) - 1
	}
	build(0, n)
}

// combineInto merges two group curves: E(W) = min over wl+wr=W of
// El(wl)+Er(wr), with the seed's tie-breaking (strictly-smaller wins, so
// the smallest feasible left allocation is kept on ties).
//
// Only the children's finite windows are walked, and without the
// reference's +Inf skips: a candidate with a +Inf term is +Inf (or NaN)
// and never wins the strict comparison against an entry that starts at
// +Inf, so the winners, and the split on ties, are the reference's. The
// result's window is the sum of the children's; entries outside it are
// left as they were and never read.
func combineInto(a, l, r *wsNode) {
	if l.flo == l.fhi || r.flo == r.fhi {
		a.flo, a.fhi = 0, 0
		return
	}
	a.flo, a.fhi = l.flo+r.flo, l.fhi+r.fhi-1
	for i := a.flo; i < a.fhi; i++ {
		a.energy[i] = math.Inf(1)
		a.split[i] = -1
	}
	re := r.energy[r.flo:r.fhi]
	for li := l.flo; li < l.fhi; li++ {
		le, w := l.energy[li], l.minW+li
		dst := a.energy[li+r.flo : li+r.fhi]
		split := a.split[li+r.flo : li+r.fhi]
		for k, x := range re {
			if e := le + x; e < dst[k] {
				dst[k] = e
				split[k] = w
			}
		}
	}
}

// splitRoot returns the ways the root gives its left child at the given
// total, or -1 when no split is feasible. It computes the single entry
// combineInto would produce at that total: the same candidates in the
// same order (left allocation ascending), restricted to the children's
// finite windows as there, and the same strictly-smaller rule, so the
// split, and the feasibility, are the reference's.
func (ws *Workspace) splitRoot(rt *wsNode, total int) int {
	l, r := &ws.nodes[rt.left], &ws.nodes[rt.right]
	i := total - rt.minW
	best, leftW := math.Inf(1), -1
	for li := max(l.flo, i-r.fhi+1); li < l.fhi && li <= i-r.flo; li++ {
		if e := l.energy[li] + r.energy[i-li]; e < best {
			best, leftW = e, l.minW+li
		}
	}
	return leftW
}

// assign walks the reduction tree distributing the granted total.
func (ws *Workspace) assign(node, total int, curves []*Curve, out []config.Setting) {
	nd := &ws.nodes[node]
	if nd.left < 0 {
		out[nd.lo] = curves[nd.lo].Pick[total-config.MinWays]
		return
	}
	leftW := nd.split[total-nd.minW]
	if leftW < 0 {
		panic("rm: backtracking through infeasible aggregate")
	}
	ws.assign(nd.left, leftW, curves, out)
	ws.assign(nd.right, total-leftW, curves, out)
}
