package qosrm

// One testing.B benchmark per paper table/figure. Each measures the cost
// of regenerating that artefact from a built database (the database
// build itself is measured by internal/db's BenchmarkDatabaseBuild).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"io"
	"sync"
	"testing"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/experiments"
)

var (
	benchOnce sync.Once
	benchDB   *db.DB
	benchErr  error
)

// benchContext builds one reduced-tracelen full-suite database shared by
// all benchmarks.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchDB, benchErr = db.Build(bench.Suite(), db.Options{TraceLen: 16384, Warmup: 4096})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	ctx := experiments.NewContext(benchDB)
	ctx.PerScenario = 2
	return ctx
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RenderTableI(io.Discard)
	}
}

func BenchmarkTableII(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cells := ctx.Fig1(); len(cells) != 10 {
			b.Fatal("bad fig1")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig4(); r.LM[0] != 3 {
			b.Fatal("bad fig4")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig5(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 measures the main evaluation sweep (4-core workloads,
// three managers each, with overheads).
func BenchmarkFig6(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig6Sizes([]int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 measures the exhaustive QoS-violation sweep (all phases
// × all current settings × all target settings × three models); Fig. 8
// shares this computation.
func BenchmarkFig7(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) { BenchmarkFig7(b) }

func BenchmarkFig9(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig9Sizes([]int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoSimulation measures one two-core RM3 co-simulation — the
// unit of work behind Figures 2, 6 and 9.
func BenchmarkCoSimulation(b *testing.B) {
	ctx := benchContext(b)
	sys := FromDB(ctx.DB)
	apps := []*Benchmark{MustBenchmark("libquantum"), MustBenchmark("omnetpp")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(apps, SimConfig{RM: RM3, Model: Model3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalOptimization measures one local optimisation (the
// per-interval work of a single core's RM invocation).
func BenchmarkLocalOptimization(b *testing.B) {
	benchmarkRMWork(b)
}
