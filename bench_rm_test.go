package qosrm

import (
	"testing"

	"qosrm/internal/config"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// benchmarkRMWork measures Localize + the global optimisation for an
// 8-core system, the per-invocation cost the paper bounds at 100K
// instructions (Section III-E). Each op reduces on a fresh rm.Workspace,
// so it pays the full reduction, not the incremental one.
func benchmarkRMWork(b *testing.B) {
	ctx := benchContext(b)
	st, err := ctx.DB.Stats("mcf", 0, config.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	pred := &rm.ModelPredictor{
		Stats: perfmodel.FromDB(st, config.Baseline()),
		Model: perfmodel.Model3,
	}
	const cores = 8
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curves := make([]*rm.Curve, cores)
		for j := range curves {
			cv := rm.Localize(pred, rm.RM3, rm.Options{})
			curves[j] = &cv
		}
		var ws rm.Workspace
		if !ws.Optimize(curves, config.TotalWays(cores), make([]config.Setting, cores)) {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkATDAccess measures the proposed ATD extension's per-access
// cost (45 leading-miss counters updated per observed LLC access).
func BenchmarkATDAccess(b *testing.B) {
	benchmarkATD(b)
}
