package db

import (
	"math"
	"sync"
	"testing"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/trace"
)

var (
	testDBOnce sync.Once
	testDB     *DB
	testDBErr  error
)

// testBenches is a small cross-archetype subset.
func testBenches(t *testing.T) []*bench.Benchmark {
	t.Helper()
	names := []string{"mcf", "povray", "bwaves", "xalancbmk"}
	out := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func sharedDB(t *testing.T) *DB {
	t.Helper()
	testDBOnce.Do(func() {
		testDB, testDBErr = Build(testBenches(t), Options{TraceLen: 16384, Warmup: 4096})
	})
	if testDBErr != nil {
		t.Fatal(testDBErr)
	}
	return testDB
}

func TestBuildCoversAllPhases(t *testing.T) {
	d := sharedDB(t)
	for _, b := range testBenches(t) {
		if d.NumPhases(b.Name) != len(b.Phases) {
			t.Errorf("%s: %d phases in db, want %d", b.Name, d.NumPhases(b.Name), len(b.Phases))
		}
	}
	if len(d.Benchmarks()) != 4 {
		t.Errorf("Benchmarks() = %v", d.Benchmarks())
	}
}

func TestStatsErrors(t *testing.T) {
	d := sharedDB(t)
	if _, err := d.Stats("unknown", 0, config.Baseline()); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := d.Stats("mcf", 99, config.Baseline()); err == nil {
		t.Error("bad phase must error")
	}
	bad := config.Baseline()
	bad.Ways = 99
	if _, err := d.Stats("mcf", 0, bad); err == nil {
		t.Error("invalid setting must error")
	}
}

func TestStatsBasicSanity(t *testing.T) {
	d := sharedDB(t)
	s, err := d.Stats("mcf", 0, config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions != 16384 {
		t.Errorf("instructions %.0f, want 16384", s.Instructions)
	}
	if s.TimeNs <= 0 || s.TPI() <= 0 {
		t.Error("time must be positive")
	}
	sum := s.BaseNs + s.BranchNs + s.CacheNs + s.MemNs
	if math.Abs(sum-s.TimeNs) > 1e-6*s.TimeNs {
		t.Error("components must sum to total")
	}
	if s.LLCMisses > s.LLCAccesses {
		t.Error("more misses than accesses")
	}
	if s.MLP < 1 {
		t.Error("MLP must be at least 1")
	}
}

func TestInterpolationMatchesCornersExactly(t *testing.T) {
	d := sharedDB(t)
	for _, fi := range []int{0, config.BaseFreqIdx, config.NumFreqs - 1} {
		set := config.Setting{Core: config.SizeM, Freq: fi, Ways: 8}
		a, err := d.Stats("mcf", 0, set)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := d.Stats("mcf", 0, set)
		if *a != *b {
			t.Error("corner lookups must be stable")
		}
	}
}

func TestInterpolatedTimeMonotonicInFrequency(t *testing.T) {
	d := sharedDB(t)
	for _, benchName := range []string{"mcf", "povray", "bwaves"} {
		prev := math.Inf(1)
		for fi := 0; fi < config.NumFreqs; fi++ {
			s, err := d.Stats(benchName, 0, config.Setting{Core: config.SizeM, Freq: fi, Ways: 8})
			if err != nil {
				t.Fatal(err)
			}
			if s.TimeNs >= prev {
				t.Errorf("%s: time not decreasing at f index %d", benchName, fi)
			}
			prev = s.TimeNs
		}
	}
}

func TestInterpolationBetweenCornersIsBounded(t *testing.T) {
	// An interpolated record lies between its corners' values.
	d := sharedDB(t)
	lo, _ := d.Stats("mcf", 0, config.Setting{Core: config.SizeM, Freq: 0, Ways: 8})
	mid, _ := d.Stats("mcf", 0, config.Setting{Core: config.SizeM, Freq: 2, Ways: 8})
	hi, _ := d.Stats("mcf", 0, config.Setting{Core: config.SizeM, Freq: config.BaseFreqIdx, Ways: 8})
	if mid.TimeNs > lo.TimeNs || mid.TimeNs < hi.TimeNs {
		t.Errorf("interpolated time %.2f outside corners [%.2f, %.2f]", mid.TimeNs, hi.TimeNs, lo.TimeNs)
	}
	if mid.MemNs > math.Max(lo.MemNs, hi.MemNs) || mid.MemNs < math.Min(lo.MemNs, hi.MemNs) {
		t.Error("interpolated memory stall outside corners")
	}
}

func TestGroundTruthMissCurveMonotone(t *testing.T) {
	d := sharedDB(t)
	prev := math.Inf(1)
	for w := config.MinWays; w <= config.MaxWays; w++ {
		s, err := d.Stats("mcf", 0, config.Setting{Core: config.SizeM, Freq: config.BaseFreqIdx, Ways: w})
		if err != nil {
			t.Fatal(err)
		}
		if s.LLCMisses > prev*(1+1e-9) {
			t.Errorf("misses grew with ways at w=%d", w)
		}
		prev = s.LLCMisses
	}
}

func TestATDEstimatesPresent(t *testing.T) {
	d := sharedDB(t)
	s, _ := d.Stats("mcf", 0, config.Baseline())
	if s.ATDMissCurve[config.BaseWays-config.MinWays] <= 0 {
		t.Fatal("ATD miss estimate missing")
	}
	for ci := range s.ATDLM {
		for wi := range s.ATDLM[ci] {
			if s.ATDLM[ci][wi] < 0 {
				t.Fatal("negative LM estimate")
			}
			if s.ATDLM[ci][wi] > s.ATDMissCurve[wi]+1 {
				t.Fatalf("LM estimate exceeds miss estimate at c=%d w=%d", ci, wi)
			}
		}
	}
	// A compute-bound application has no LLC traffic at all.
	p, _ := d.Stats("povray", 0, config.Baseline())
	if p.LLCAccesses != 0 {
		t.Errorf("povray has %v LLC accesses, want 0", p.LLCAccesses)
	}
}

func TestActualEnergyScalesLinearly(t *testing.T) {
	d := sharedDB(t)
	s, _ := d.Stats("mcf", 0, config.Baseline())
	e1 := s.ActualEnergyJ(config.Baseline(), 1000)
	e2 := s.ActualEnergyJ(config.Baseline(), 2000)
	if math.Abs(e2-2*e1) > 0.02*e2 {
		t.Errorf("energy not ≈linear in instructions: %g vs 2×%g", e2, e1)
	}
}

// TestBuildValidatesBenchmarks pins the up-front check that lets the
// sweep's workers run without error paths: an invalid benchmark fails
// the build before any shard starts, including one whose only fault is
// a later phase's trace parameters.
func TestBuildValidatesBenchmarks(t *testing.T) {
	valid := mustBench(t, "mcf").Phases[0].Params
	for name, bad := range map[string]*bench.Benchmark{
		"no phases": {Name: "bad"},
		"invalid phase params": {
			Name:       "badparams",
			TotalInstr: 1,
			Phases: []bench.Phase{
				{Params: valid, Weight: 0.5},
				{Params: trace.Params{LoadFrac: -1}, Weight: 0.5},
			},
		},
	} {
		if d, err := Build([]*bench.Benchmark{bad}, Options{TraceLen: 1024}); err == nil || d != nil {
			t.Errorf("%s: invalid benchmark must fail the build, got %v", name, err)
		}
	}
}

func TestMeasureAndClassifyArchetypes(t *testing.T) {
	d := sharedDB(t)
	// The shapes that drive the taxonomy must be visible even at the
	// test trace length: mcf is cache sensitive, bwaves is not; povray
	// has no misses at all.
	mcf, err := d.Measure(mustBench(t, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if mcf.MPKI4 <= mcf.MPKI12 {
		t.Error("mcf must lose misses with more ways")
	}
	bw, _ := d.Measure(mustBench(t, "bwaves"))
	if bw.MPKI8 <= 0 {
		t.Error("bwaves must have LLC misses")
	}
	if rel := (bw.MPKI4 - bw.MPKI12) / bw.MPKI8; rel > 0.2 {
		t.Errorf("bwaves miss curve too steep for CI: %.3f", rel)
	}
	if bw.MLPL < bw.MLPS {
		t.Error("bwaves MLP must grow with core size")
	}
	pv, _ := d.Measure(mustBench(t, "povray"))
	if cat := pv.Category(); cat != bench.CIPI {
		t.Errorf("povray classified %s, want CI-PI", cat)
	}
}

func mustBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildRaceStress pins the concurrency contract of the
// (phase, core size, corner)-sharded sweep for the race detector: a
// many-worker build — more workers than this machine may have cores —
// immediately hammered by concurrent readers racing the lazy dense-grid
// materialisation. `go test -race` (a CI job) turns any unsynchronised
// access in the shared phase preparation, the ATD replay dedup or the
// dense cache into a failure.
func TestBuildRaceStress(t *testing.T) {
	benches := testBenches(t)[:2]
	d, err := Build(benches, Options{TraceLen: 8192, Warmup: 2048, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(benches, Options{TraceLen: 8192, Warmup: 2048})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				set := config.Setting{
					Core: config.CoreSize((g + i) % config.NumSizes),
					Freq: (g * 3) % config.NumFreqs,
					Ways: config.MinWays + (g+i)%NumWays,
				}
				for _, b := range benches {
					for p := 0; p < d.NumPhases(b.Name); p++ {
						s, err := d.Stats(b.Name, p, set)
						if err != nil {
							t.Error(err)
							return
						}
						// The concurrently materialised record must match
						// the sequential reference build exactly.
						want, err := ref.Stats(b.Name, p, set)
						if err != nil {
							t.Error(err)
							return
						}
						if s.TimeNs != want.TimeNs || s.LLCMisses != want.LLCMisses {
							t.Errorf("%s phase %d %v: racy record differs", b.Name, p, set)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
