package rm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qosrm/internal/config"
	"qosrm/internal/perfmodel"
)

// fakePredictor is a synthetic predictor with analytic behaviour:
// time improves with frequency, ways and core size; energy follows a
// V²f dynamic cost plus a memory term that shrinks with ways.
type fakePredictor struct {
	coreNs   float64 // at baseline f, M core
	memNs    float64 // at baseline ways
	memSlope float64
}

func (p *fakePredictor) TimePI(s config.Setting) float64 {
	width := float64(config.Core(s.Core).IssueWidth)
	core := p.coreNs * (4 / width) * (config.FBaseGHz / s.FGHz())
	mem := p.memNs - p.memSlope*float64(s.Ways-config.BaseWays)
	if mem < 0.05*p.memNs {
		mem = 0.05 * p.memNs
	}
	return core + mem
}

func (p *fakePredictor) EnergyPI(s config.Setting) float64 {
	v := config.Voltage(s.FGHz())
	dyn := []float64{0.48, 0.6, 0.78}[s.Core] * v * v
	static := []float64{0.19, 0.25, 0.36}[s.Core] * v * p.TimePI(s)
	mem := (p.memNs - p.memSlope*float64(s.Ways-config.BaseWays)) * 0.1
	if mem < 0 {
		mem = 0
	}
	return dyn + static + mem
}

// feasibleWays counts the allocations of cv that satisfy QoS.
func feasibleWays(cv *Curve) int {
	n := 0
	for _, e := range cv.Energy {
		if !math.IsInf(e, 1) {
			n++
		}
	}
	return n
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Idle: "Idle", RM1: "RM1", RM2: "RM2", RM3: "RM3"}
	for k, s := range names {
		if k.String() != s {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestLocalizeBaselineAlwaysFeasible(t *testing.T) {
	p := &fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}
	for _, k := range Kinds {
		cv := Localize(p, k, Options{})
		wi := config.BaseWays - config.MinWays
		if math.IsInf(cv.Energy[wi], 1) {
			t.Errorf("%s: baseline allocation infeasible", k)
		}
		if feasibleWays(&cv) == 0 {
			t.Errorf("%s: curve completely infeasible", k)
		}
	}
}

func TestLocalizeRM1RespectsFixedSetting(t *testing.T) {
	p := &fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}
	cv := Localize(p, RM1, Options{})
	for wi, e := range cv.Energy {
		if math.IsInf(e, 1) {
			continue
		}
		pick := cv.Pick[wi]
		if pick.Core != config.SizeM || pick.Freq != config.BaseFreqIdx {
			t.Fatalf("RM1 changed core/VF at w=%d: %v", config.MinWays+wi, pick)
		}
		if pick.Ways != config.MinWays+wi {
			t.Fatalf("pick ways mismatch at index %d", wi)
		}
	}
}

func TestLocalizeRM2UsesOnlyMCore(t *testing.T) {
	p := &fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}
	cv := Localize(p, RM2, Options{})
	for wi, e := range cv.Energy {
		if math.IsInf(e, 1) {
			continue
		}
		if cv.Pick[wi].Core != config.SizeM {
			t.Fatal("RM2 must not resize the core")
		}
	}
}

func TestLocalizePicksMinimumFeasibleFrequency(t *testing.T) {
	// The paper's rule: f*(w) is the minimum frequency meeting QoS.
	p := &fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}
	budget := p.TimePI(config.Baseline())
	cv := Localize(p, RM2, Options{})
	for wi, e := range cv.Energy {
		if math.IsInf(e, 1) {
			continue
		}
		pick := cv.Pick[wi]
		if pick.Freq > 0 {
			lower := pick
			lower.Freq--
			if p.TimePI(lower) <= budget {
				t.Fatalf("w=%d: a lower frequency %d was feasible", pick.Ways, lower.Freq)
			}
		}
	}
}

func TestLocalizeRM3FeasibleBelowBaselineWays(t *testing.T) {
	// With a strong memory slope, the M core cannot give up ways, but
	// the L core's headroom should open donor allocations.
	p := &fakePredictor{coreNs: 0.5, memNs: 0.5, memSlope: 0.06}
	rm2 := Localize(p, RM2, Options{})
	rm3 := Localize(p, RM3, Options{})
	if feasibleWays(&rm3) < feasibleWays(&rm2) {
		t.Fatal("RM3's search space contains RM2's; it cannot be less feasible")
	}
	for wi := range rm3.Energy {
		if rm3.Energy[wi] > rm2.Energy[wi]+1e-12 {
			t.Fatalf("RM3 energy above RM2 at w=%d", config.MinWays+wi)
		}
	}
}

func TestLocalizeAlphaRelaxation(t *testing.T) {
	p := &fakePredictor{coreNs: 0.5, memNs: 0.5, memSlope: 0.06}
	strict := Localize(p, RM2, Options{Alpha: 1})
	relaxed := Localize(p, RM2, Options{Alpha: 1.5})
	strictN, relaxedN := 0, 0
	for wi := range strict.Energy {
		if !math.IsInf(strict.Energy[wi], 1) {
			strictN++
		}
		if !math.IsInf(relaxed.Energy[wi], 1) {
			relaxedN++
		}
	}
	if relaxedN < strictN {
		t.Fatal("relaxing α must not reduce feasibility")
	}
	if relaxedN == strictN {
		t.Skip("α had no effect for this predictor")
	}
}

func TestGlobalOptimizeConservesWays(t *testing.T) {
	p := &fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}
	for _, n := range []int{2, 3, 4, 8} {
		curves := make([]*Curve, n)
		for i := range curves {
			cv := Localize(p, RM3, Options{})
			curves[i] = &cv
		}
		total := config.TotalWays(n)
		settings, ok := allocate(PolicyModel3, curves, total)
		if !ok {
			t.Fatalf("n=%d: no feasible distribution", n)
		}
		sum := 0
		for _, s := range settings {
			if s.Ways < config.MinWays || s.Ways > config.MaxWays {
				t.Fatalf("n=%d: allocation %d out of range", n, s.Ways)
			}
			sum += s.Ways
		}
		if sum != total {
			t.Fatalf("n=%d: allocations sum to %d, want %d", n, sum, total)
		}
	}
}

// TestGlobalOptimizeMatchesBruteForce verifies optimality of the
// pairwise reduction against exhaustive enumeration on random curves.
func TestGlobalOptimizeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		curves := make([]*Curve, n)
		for i := range curves {
			cv := &Curve{}
			for wi := range cv.Energy {
				if rng.Float64() < 0.2 {
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
			// Baseline always feasible, as Localize guarantees.
			cv.Energy[config.BaseWays-config.MinWays] = rng.Float64()
			cv.Pick[config.BaseWays-config.MinWays] = config.Baseline()
			curves[i] = cv
		}
		total := config.TotalWays(n)
		settings, ok := allocate(PolicyModel3, curves, total)
		if !ok {
			return false
		}
		got := 0.0
		for i, s := range settings {
			got += curves[i].Energy[s.Ways-config.MinWays]
		}
		// Brute force.
		best := math.Inf(1)
		for w0 := config.MinWays; w0 <= config.MaxWays; w0++ {
			for w1 := config.MinWays; w1 <= config.MaxWays; w1++ {
				w2 := total - w0 - w1
				if w2 < config.MinWays || w2 > config.MaxWays {
					continue
				}
				e := curves[0].Energy[w0-config.MinWays] +
					curves[1].Energy[w1-config.MinWays] +
					curves[2].Energy[w2-config.MinWays]
				if e < best {
					best = e
				}
			}
		}
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGlobalOptimizeInfeasible(t *testing.T) {
	// Two curves feasible only at w=8 cannot meet a total of 17.
	pin := func() *Curve {
		cv := &Curve{}
		for i := range cv.Energy {
			cv.Energy[i] = math.Inf(1)
		}
		cv.Energy[config.BaseWays-config.MinWays] = 1
		cv.Pick[config.BaseWays-config.MinWays] = config.Baseline()
		return cv
	}
	if _, ok := allocate(PolicyModel3, []*Curve{pin(), pin()}, 17); ok {
		t.Fatal("expected infeasibility")
	}
	if settings, ok := allocate(PolicyModel3, []*Curve{pin(), pin()}, 16); !ok ||
		settings[0].Ways != 8 || settings[1].Ways != 8 {
		t.Fatal("pinned curves must split 8/8")
	}
}

func TestGlobalOptimizeEmptyAndBounds(t *testing.T) {
	if _, ok := allocate(PolicyModel3, nil, 16); ok {
		t.Fatal("no cores must be infeasible")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsatisfiable way total must panic")
		}
	}()
	cv := Localize(&fakePredictor{coreNs: 0.4, memNs: 0.6, memSlope: 0.05}, RM3, Options{})
	allocate(PolicyModel3, []*Curve{&cv}, 40)
}

func TestGlobalOptimizePrefersCheaperDistribution(t *testing.T) {
	// One core strongly prefers many ways, the other is flat: the
	// optimum must give the hungry core more than baseline.
	hungry := &fakePredictor{coreNs: 0.3, memNs: 0.8, memSlope: 0.08}
	flat := &fakePredictor{coreNs: 0.5, memNs: 0.0, memSlope: 0}
	c1 := Localize(hungry, RM3, Options{})
	c2 := Localize(flat, RM3, Options{})
	settings, ok := allocate(PolicyModel3, []*Curve{&c1, &c2}, 16)
	if !ok {
		t.Fatal("expected feasible distribution")
	}
	if settings[0].Ways <= config.BaseWays {
		t.Fatalf("hungry core got %d ways, want > %d", settings[0].Ways, config.BaseWays)
	}
}

func TestModelPredictorImplementsPredictor(t *testing.T) {
	var _ Predictor = (*ModelPredictor)(nil)
	// Sanity: a zero-value IntervalStats predicts finite times.
	mp := &ModelPredictor{Model: perfmodel.Model2}
	mp.Stats.Setting = config.Baseline()
	mp.Stats.MLP = 1
	if math.IsNaN(mp.TimePI(config.Baseline())) {
		t.Fatal("NaN prediction")
	}
	if math.IsNaN(mp.EnergyPI(config.Baseline())) {
		t.Fatal("NaN energy")
	}
}
