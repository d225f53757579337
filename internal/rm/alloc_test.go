package rm

import (
	"math/rand"
	"testing"

	"qosrm/internal/config"
)

// flatPredictor is a trivial allocation-free predictor: every setting
// is feasible and equally good, which exercises the full search space.
type flatPredictor struct{}

func (flatPredictor) TimePI(config.Setting) float64   { return 1 }
func (flatPredictor) EnergyPI(config.Setting) float64 { return 1 }

// TestLocalizeAllocationFree pins the per-interval hot path's budget:
// the local optimisation must not allocate (its search-space tables are
// package-level), for any manager kind.
func TestLocalizeAllocationFree(t *testing.T) {
	for _, kind := range []Kind{Idle, RM1, RM2, RM3} {
		n := testing.AllocsPerRun(100, func() { Localize(flatPredictor{}, kind, Options{}) })
		if n > 0 {
			t.Errorf("%v: Localize allocates %.0f times per call, want 0", kind, n)
		}
	}
}

// TestWorkspaceOptimizeAllocationFree pins the global optimisation's
// share of the same budget: once the reduction tree exists, a call
// allocates nothing, whether one core's curve changed since the last
// call or none did.
func TestWorkspaceOptimizeAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	curves := randomCurves(rng, 8)
	alt := randomCurves(rng, 1)[0]
	total := config.TotalWays(8)
	out := make([]config.Setting, 8)
	var ws Workspace
	ws.Optimize(curves, total, out)
	for name, step := range map[string]func(){
		"none changed": func() {},
		"one changed":  func() { curves[0], alt = alt, curves[0] },
	} {
		n := testing.AllocsPerRun(100, func() {
			step()
			if !ws.Optimize(curves, total, out) {
				t.Fatal("infeasible")
			}
		})
		if n > 0 {
			t.Errorf("%s: Workspace.Optimize allocates %.0f times per call, want 0", name, n)
		}
	}
}
