package db

import (
	"testing"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/cpu"
	"qosrm/internal/trace"
)

// BuildReference is the seed implementation of Build, the equivalence
// baseline of the build tests. It re-creates and re-warms the ATD for
// every run and walks each (core size, frequency, ways) point separately
// via cpu.RunReference, one phase after another.
func BuildReference(benches []*bench.Benchmark, opts Options) (*DB, error) {
	opts.fill()
	d := New(opts.TraceLen, opts.Warmup)
	for _, b := range benches {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		for _, ph := range b.Phases {
			pd, err := buildPhaseReference(ph.Params, opts)
			if err != nil {
				return nil, err
			}
			d.Phases[b.Name] = append(d.Phases[b.Name], pd)
		}
	}
	return d, nil
}

// buildPhaseReference simulates one phase over the full configuration
// space exactly as the seed did: fresh ATD and warmup replay per run,
// one timing walk per grid point.
func buildPhaseReference(p trace.Params, opts Options) (*phaseData, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	insts := trace.Generate(p, opts.Warmup+opts.TraceLen)
	full := cpu.Annotate(insts)
	tail := full.Tail(opts.Warmup)

	pd := &phaseData{}
	for ci, c := range config.Sizes {
		for k, fi := range fCorners {
			for wi := 0; wi < NumWays; wi++ {
				w := config.MinWays + wi
				a := atd.MustNew(0)
				full.WarmATDReference(a, opts.Warmup)
				r := cpu.RunReference(tail, cpu.RunConfig{
					Core:    c,
					Ways:    w,
					FreqGHz: config.FreqGHz(fi),
					ATD:     a,
				})
				fillStats(&pd.Runs[ci][k][wi], &r, a)
			}
		}
	}
	return pd, nil
}

// StatsReference is the seed implementation of Stats, the equivalence
// baseline of the lookup tests: it recomputes the record on every call
// and returns a private copy.
func (d *DB) StatsReference(benchName string, phase int, set config.Setting) (*Stats, error) {
	pd, err := d.phase(benchName, phase, set)
	if err != nil {
		return nil, err
	}
	return pd.lookup(set.Core, set.Freq, set.Ways-config.MinWays), nil
}

// TestBuildMatchesReference is the sweep overhaul's correctness
// contract: the optimized build (shared annotation, warm-cloned ATDs,
// fifteen-lane walks) must produce a database bit-identical to the seed
// build for every record of every phase.
func TestBuildMatchesReference(t *testing.T) {
	benches := testBenches(t)[:2] // mcf (cache sensitive) and povray (compute bound)
	opts := Options{TraceLen: 8192, Warmup: 2048}
	fast, err := Build(benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		fp, rp := fast.Phases[b.Name], ref.Phases[b.Name]
		if len(fp) != len(rp) {
			t.Fatalf("%s: phase count %d vs %d", b.Name, len(fp), len(rp))
		}
		for p := range fp {
			if fp[p].Runs != rp[p].Runs {
				for ci := range fp[p].Runs {
					for k := range fp[p].Runs[ci] {
						for wi := range fp[p].Runs[ci][k] {
							if fp[p].Runs[ci][k][wi] != rp[p].Runs[ci][k][wi] {
								t.Fatalf("%s phase %d c=%d k=%d w=%d:\nfast %+v\nref  %+v",
									b.Name, p, ci, k, config.MinWays+wi,
									fp[p].Runs[ci][k][wi], rp[p].Runs[ci][k][wi])
							}
						}
					}
				}
			}
		}
	}
}

// TestStatsMatchesReference checks the dense-grid cache against the
// seed's per-call interpolation on the entire setting grid.
func TestStatsMatchesReference(t *testing.T) {
	d := sharedDB(t)
	for _, name := range []string{"mcf", "povray"} {
		for p := 0; p < d.NumPhases(name); p++ {
			for ci := 0; ci < config.NumSizes; ci++ {
				for fi := 0; fi < config.NumFreqs; fi++ {
					for w := config.MinWays; w <= config.MaxWays; w++ {
						set := config.Setting{Core: config.CoreSize(ci), Freq: fi, Ways: w}
						fast, err := d.Stats(name, p, set)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := d.StatsReference(name, p, set)
						if err != nil {
							t.Fatal(err)
						}
						if *fast != *ref {
							t.Fatalf("%s phase %d %v:\ndense %+v\nref   %+v", name, p, set, *fast, *ref)
						}
					}
				}
			}
		}
	}
}

// BenchmarkDatabaseBuild and BenchmarkDatabaseBuildReference time the
// sharded sweep and the seed sweep on one benchmark's phases over the
// full configuration space (the paper's Sniper+McPAT stage, per
// application), with one worker so the ratio is the sweep's and not the
// machine's width.
func BenchmarkDatabaseBuild(b *testing.B) {
	benchmarkBuild(b, Build)
}

func BenchmarkDatabaseBuildReference(b *testing.B) {
	benchmarkBuild(b, BuildReference)
}

func benchmarkBuild(b *testing.B, build func([]*bench.Benchmark, Options) (*DB, error)) {
	mcf, err := bench.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := build([]*bench.Benchmark{mcf}, Options{TraceLen: 8192, Warmup: 2048, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStats and BenchmarkStatsReference time record lookups across
// the full setting grid of one phase: the dense cache against the seed's
// per-call interpolation.
func BenchmarkStats(b *testing.B) {
	benchmarkStats(b, (*DB).Stats)
}

func BenchmarkStatsReference(b *testing.B) {
	benchmarkStats(b, (*DB).StatsReference)
}

func benchmarkStats(b *testing.B, stats func(*DB, string, int, config.Setting) (*Stats, error)) {
	mcf, err := bench.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	d, err := Build([]*bench.Benchmark{mcf}, Options{TraceLen: 8192, Warmup: 2048})
	if err != nil {
		b.Fatal(err)
	}
	// The first lookup materialises the dense grid; time the lookups.
	if _, err := d.Stats("mcf", 0, config.Baseline()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := config.Setting{
			Core: config.CoreSize(i % config.NumSizes),
			Freq: i % config.NumFreqs,
			Ways: config.MinWays + i%NumWays,
		}
		if _, err := stats(d, "mcf", 0, set); err != nil {
			b.Fatal(err)
		}
	}
}
