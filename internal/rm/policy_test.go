package rm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qosrm/internal/config"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	if len(names) < 3 {
		t.Fatalf("want ≥ 3 named policies, have %v", names)
	}
	for _, name := range names {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	def, err := NewPolicy("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != PolicyModel3 {
		t.Errorf("default policy is %q, want %q", def.Name(), PolicyModel3)
	}
	if _, err := NewPolicy("ultron"); err == nil {
		t.Error("unknown policy name must fail")
	}
}

// TestPoliciesMatchDirectCalls pins the policy adapters to the direct
// optimizer calls they wrap: same feasibility verdict, same settings —
// the policy layer is pure indirection, no behavioural drift.
func TestPoliciesMatchDirectCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(3)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		out := make([]config.Setting, n)

		direct := map[string]func() ([]config.Setting, bool){
			PolicyModel3: func() ([]config.Setting, bool) { return GlobalOptimizeReference(curves, total) },
			PolicyGreedy: func() ([]config.Setting, bool) {
				out := make([]config.Setting, n)
				if !greedyAllocate(curves, total, make([]int, n), out) {
					return nil, false
				}
				return out, true
			},
			PolicyBrute: func() ([]config.Setting, bool) { return BruteForceGlobalOptimize(curves, total) },
		}
		for name, ref := range direct {
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref()
			gotOK := p.Allocate(curves, total, out)
			if gotOK != wantOK {
				t.Fatalf("trial %d %s: feasibility %v, direct call %v", trial, name, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if !reflect.DeepEqual(out[:n], want) {
				t.Fatalf("trial %d %s: settings %v, direct call %v", trial, name, out[:n], want)
			}
		}
	}
}

// TestPolicyInstancesReusable pins that a policy instance gives the same
// answer across repeated invocations on different inputs — the engine
// workspace holds one instance for a whole run.
func TestPolicyInstancesReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			n := 2 + trial%3
			curves := randomCurves(rng, n)
			total := config.TotalWays(n)
			a := make([]config.Setting, n)
			b := make([]config.Setting, n)
			okA := p.Allocate(curves, total, a)
			okB := p.Allocate(curves, total, b)
			if okA != okB || (okA && !reflect.DeepEqual(a, b)) {
				t.Fatalf("%s trial %d: instance not idempotent", name, trial)
			}
		}
	}
}

// TestPolicyEnergyOrdering: brute is exhaustive, model3 provably
// optimal — both must reach the same minimum; greedy may only lose.
func TestPolicyEnergyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	model3, _ := NewPolicy(PolicyModel3)
	greedy, _ := NewPolicy(PolicyGreedy)
	brute, _ := NewPolicy(PolicyBrute)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		eOpt := policyEnergy(model3, curves, total)
		eBrute := policyEnergy(brute, curves, total)
		eGreedy := policyEnergy(greedy, curves, total)
		if math.IsInf(eOpt, 1) != math.IsInf(eBrute, 1) {
			t.Fatalf("trial %d: optimal/brute feasibility disagree", trial)
		}
		if !math.IsInf(eOpt, 1) && math.Abs(eOpt-eBrute) > 1e-9 {
			t.Fatalf("trial %d: model3 energy %.12f != brute %.12f", trial, eOpt, eBrute)
		}
		if eGreedy < eOpt-1e-9 {
			t.Fatalf("trial %d: greedy energy %.12f below the optimum %.12f", trial, eGreedy, eOpt)
		}
	}
}
