package rm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qosrm/internal/config"
)

// randomCurves builds n random energy curves with guaranteed-feasible
// baselines, as Localize produces.
func randomCurves(rng *rand.Rand, n int) []*Curve {
	curves := make([]*Curve, n)
	for i := range curves {
		cv := &Curve{}
		for wi := range cv.Energy {
			if rng.Float64() < 0.25 {
				cv.Energy[wi] = math.Inf(1)
				continue
			}
			cv.Energy[wi] = rng.Float64()
			cv.Pick[wi] = config.Setting{
				Core: config.Sizes[rng.Intn(3)],
				Freq: rng.Intn(config.NumFreqs),
				Ways: config.MinWays + wi,
			}
		}
		wi := config.BaseWays - config.MinWays
		cv.Energy[wi] = rng.Float64()
		cv.Pick[wi] = config.Baseline()
		curves[i] = cv
	}
	return curves
}

// TestBruteForceAgreesWithReduction is the central equivalence property:
// the paper's polynomial reduction and exhaustive enumeration find
// distributions of identical total energy.
func TestBruteForceAgreesWithReduction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{2, 3, 4} {
			curves := randomCurves(rng, n)
			total := config.TotalWays(n)
			fast, okF := allocate(PolicyModel3, curves, total)
			slow, okS := BruteForceGlobalOptimize(curves, total)
			if okF != okS {
				return false
			}
			if !okF {
				continue
			}
			if math.Abs(totalEnergy(curves, fast)-totalEnergy(curves, slow)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceConservesWays(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	curves := randomCurves(rng, 4)
	settings, ok := BruteForceGlobalOptimize(curves, config.TotalWays(4))
	if !ok {
		t.Fatal("expected feasible distribution")
	}
	sum := 0
	for _, s := range settings {
		sum += s.Ways
	}
	if sum != config.TotalWays(4) {
		t.Fatalf("allocations sum to %d", sum)
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	pin := &Curve{}
	for i := range pin.Energy {
		pin.Energy[i] = math.Inf(1)
	}
	pin.Energy[0] = 1 // only MinWays feasible
	pin.Pick[0] = config.Setting{Core: config.SizeM, Freq: 4, Ways: config.MinWays}
	// Two cores pinned to 2 ways cannot absorb 16.
	if _, ok := BruteForceGlobalOptimize([]*Curve{pin, pin}, 16); ok {
		t.Fatal("expected infeasibility")
	}
	if _, ok := BruteForceGlobalOptimize(nil, 16); ok {
		t.Fatal("empty input must be infeasible")
	}
}

func TestTotalEnergyInfValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	curves := randomCurves(rng, 2)
	bad := []config.Setting{{Core: config.SizeM, Freq: 4, Ways: 99}, config.Baseline()}
	if !math.IsInf(totalEnergy(curves, bad), 1) {
		t.Fatal("out-of-range ways must yield +Inf")
	}
}

// BenchmarkGlobalOptimize8 times the seed reduction, which rebuilds the
// whole tree with fresh allocations on every call, at 8 cores; against
// BenchmarkGlobalOptimizeWorkspace8OneChanged it gives the workspace's
// speed-up at an interval boundary. BenchmarkBruteForce4 documents the
// paper's complexity argument.
func BenchmarkGlobalOptimize8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	curves := randomCurves(rng, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := GlobalOptimizeReference(curves, config.TotalWays(8)); !ok {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkBruteForce4(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	curves := randomCurves(rng, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := BruteForceGlobalOptimize(curves, config.TotalWays(4)); !ok {
			b.Fatal("infeasible")
		}
	}
}

func TestGreedyNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		curves := randomCurves(rng, 4)
		total := config.TotalWays(4)
		opt, okO := allocate(PolicyModel3, curves, total)
		greedy, okG := allocate(PolicyGreedy, curves, total)
		if !okO {
			return true // both may be infeasible
		}
		if !okG {
			return true // greedy may fail where optimal succeeds
		}
		// Conservation and bound.
		sum := 0
		for _, s := range greedy {
			sum += s.Ways
		}
		if sum != total {
			return false
		}
		return totalEnergy(curves, greedy) >= totalEnergy(curves, opt)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyOptimalOnConvexCurves(t *testing.T) {
	// On convex (diminishing-returns) curves the greedy heuristic is
	// provably optimal; verify against the reduction.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		curves := make([]*Curve, 3)
		for i := range curves {
			cv := &Curve{}
			e := 2 + rng.Float64()
			gain := 0.3 + rng.Float64()*0.2
			for wi := range cv.Energy {
				cv.Energy[wi] = e
				cv.Pick[wi] = config.Setting{Core: config.SizeM, Freq: 4, Ways: config.MinWays + wi}
				e -= gain
				gain *= 0.7 + rng.Float64()*0.2 // shrinking marginal gains
			}
			curves[i] = cv
		}
		total := config.TotalWays(3)
		opt, _ := allocate(PolicyModel3, curves, total)
		greedy, ok := allocate(PolicyGreedy, curves, total)
		if !ok {
			t.Fatal("greedy failed on convex curves")
		}
		if d := totalEnergy(curves, greedy) - totalEnergy(curves, opt); d > 1e-9 {
			t.Fatalf("greedy suboptimal on convex curves by %g", d)
		}
	}
}

func TestGreedyEmptyInput(t *testing.T) {
	if _, ok := allocate(PolicyGreedy, nil, 16); ok {
		t.Fatal("empty input must fail")
	}
}
