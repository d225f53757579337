// The allocation-policy layer: the co-simulator's global allocation
// decision — per-core energy curves in, per-core (core size, frequency,
// ways) settings out — behind one interface, so the engine is policy-
// agnostic and new optimizers (priority-aware schemes, game-theoretic
// equilibrium solvers) drop in without touching the event loop.
//
// Three named policies ship with the reproduction:
//
//   - "model3": the paper's optimal pairwise curve reduction
//     (Workspace.Optimize) — the default everywhere;
//   - "greedy": the marginal-utility heuristic (greedyAllocate),
//     cheaper but optimal only for convex curves;
//   - "brute": exhaustive enumeration (BruteForceGlobalOptimize), the
//     exponential correctness reference for small core counts.
package rm

import (
	"fmt"
	"strings"

	"qosrm/internal/config"
)

// Policy is one pluggable global allocation decision. Allocate
// distributes totalWays across the cores' energy curves and writes the
// chosen setting per core into out (len(out) ≥ len(curves)); it returns
// false when no feasible distribution exists, in which case out is
// unspecified and the caller keeps the previous settings.
//
// A Policy instance may carry reusable scratch state (the model3 policy
// holds the reduction-tree arena); instances are not safe for concurrent
// use — create one per engine workspace via NewPolicy.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Allocate picks the way distribution and per-core settings.
	Allocate(curves []*Curve, totalWays int, out []config.Setting) bool
}

// The named policies of the registry.
const (
	PolicyModel3 = "model3"
	PolicyGreedy = "greedy"
	PolicyBrute  = "brute"
)

// PolicyNames lists the registered allocation policies, default first.
func PolicyNames() []string {
	return []string{PolicyModel3, PolicyGreedy, PolicyBrute}
}

// NewPolicy returns a fresh instance of the named policy; the empty name
// selects the default ("model3", the paper's optimal reduction).
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", PolicyModel3:
		return &optimalPolicy{}, nil
	case PolicyGreedy:
		return &greedyPolicy{}, nil
	case PolicyBrute:
		return &brutePolicy{}, nil
	}
	return nil, fmt.Errorf("rm: unknown allocation policy %q (have %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// optimalPolicy is the paper's optimal pairwise curve reduction behind
// the Policy interface, reusing one Workspace arena across invocations —
// the same allocation-free path the co-simulator ran before the policy
// layer existed (bit-identical, pinned by TestPoliciesMatchDirectCalls).
type optimalPolicy struct {
	ws Workspace
}

func (p *optimalPolicy) Name() string { return PolicyModel3 }

func (p *optimalPolicy) Allocate(curves []*Curve, totalWays int, out []config.Setting) bool {
	return p.ws.Optimize(curves, totalWays, out)
}

// greedyPolicy is the marginal-utility heuristic behind the Policy
// interface, reusing its per-core allocation buffer across invocations.
type greedyPolicy struct {
	alloc []int
}

func (p *greedyPolicy) Name() string { return PolicyGreedy }

func (p *greedyPolicy) Allocate(curves []*Curve, totalWays int, out []config.Setting) bool {
	n := len(curves)
	if n == 0 {
		return false
	}
	if cap(p.alloc) < n {
		p.alloc = make([]int, n)
	}
	return greedyAllocate(curves, totalWays, p.alloc[:n], out)
}

// brutePolicy is the exhaustive enumeration behind the Policy interface.
// It is exponential in the core count and exists as the optimality
// reference of policy-comparison sweeps; keep core counts small.
type brutePolicy struct{}

func (p *brutePolicy) Name() string { return PolicyBrute }

func (p *brutePolicy) Allocate(curves []*Curve, totalWays int, out []config.Setting) bool {
	settings, ok := BruteForceGlobalOptimize(curves, totalWays)
	if !ok {
		return false
	}
	copy(out, settings)
	return true
}
