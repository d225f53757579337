package rm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qosrm/internal/config"
)

// TestWorkspaceMatchesReference checks the allocation-free workspace
// reduction against the seed implementation setting-by-setting (not
// just by total energy): iteration order and tie-breaking are
// replicated, so the chosen (core, frequency, ways) triples must be
// identical. One workspace is reused across calls and core counts to
// exercise buffer reuse.
func TestWorkspaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws Workspace
	out := make([]config.Setting, 8)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		ref, okRef := GlobalOptimizeReference(curves, total)
		ok := ws.Optimize(curves, total, out[:n])
		if ok != okRef {
			t.Fatalf("trial %d (n=%d): feasibility %v vs reference %v", trial, n, ok, okRef)
		}
		if !ok {
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("trial %d (n=%d) core %d: workspace %v, reference %v",
					trial, n, i, out[i], ref[i])
			}
		}
	}
}

// TestGlobalOptimizeMatchesReference pins a one-shot model3 policy (a
// fresh workspace per call) to the seed implementation too.
func TestGlobalOptimizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		fast, okF := allocate(PolicyModel3, curves, total)
		ref, okR := GlobalOptimizeReference(curves, total)
		if okF != okR {
			t.Fatalf("trial %d: feasibility diverges", trial)
		}
		for i := range ref {
			if fast[i] != ref[i] {
				t.Fatalf("trial %d core %d: %v vs %v", trial, i, fast[i], ref[i])
			}
		}
	}
}

// TestWorkspaceInfeasible mirrors the reference's infeasibility
// behaviour.
func TestWorkspaceInfeasible(t *testing.T) {
	pin := &Curve{}
	for i := range pin.Energy {
		pin.Energy[i] = math.Inf(1)
	}
	pin.Energy[0] = 1 // only MinWays feasible
	pin.Pick[0] = config.Setting{Core: config.SizeM, Freq: 4, Ways: config.MinWays}
	var ws Workspace
	out := make([]config.Setting, 2)
	if ws.Optimize([]*Curve{pin, pin}, 16, out) {
		t.Fatal("two cores pinned to 2 ways cannot absorb 16")
	}
	if ws.Optimize(nil, 16, nil) {
		t.Fatal("empty input must be infeasible")
	}
}

// BenchmarkGlobalOptimizeWorkspace8 measures a reused workspace on
// curves that do not change between calls, which leaves only the root
// solve; BenchmarkGlobalOptimize8 is the seed reduction.
func BenchmarkGlobalOptimizeWorkspace8(b *testing.B) {
	benchmarkWorkspace8(b, false)
}

// BenchmarkGlobalOptimizeWorkspace8OneChanged alternates core 0 between
// two curves, so every call recombines one leaf-to-root path: an
// interval boundary, where only the invoking core's curve changed.
func BenchmarkGlobalOptimizeWorkspace8OneChanged(b *testing.B) {
	benchmarkWorkspace8(b, true)
}

func benchmarkWorkspace8(b *testing.B, alternate bool) {
	rng := rand.New(rand.NewSource(5))
	curves := randomCurves(rng, 8)
	alt := randomCurves(rng, 1)[0]
	var ws Workspace
	out := make([]config.Setting, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alternate {
			curves[0], alt = alt, curves[0]
		}
		if !ws.Optimize(curves, config.TotalWays(8), out) {
			b.Fatal("infeasible")
		}
	}
}

// FuzzWorkspaceOptimize drives one Workspace through a sequence of calls
// and checks every call against GlobalOptimizeReference, in feasibility
// and in every setting. Each script byte is one step: its low three bits
// pick what changes before the call, its high bits a core or a core
// count. Curves are mutated in place through the same pointers, so the
// workspace must notice changes by content. Energies are drawn from a
// few quarter values, so ties exercise the tie-breaking as well.
func FuzzWorkspaceOptimize(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 9, 0, 2, 3, 4, 5, 0})
	f.Add(int64(2), []byte{6, 1, 14, 1, 0, 62, 2, 2, 3, 7, 0})
	f.Add(int64(3), []byte{4, 12, 20, 28, 36, 0, 5, 13, 21, 29, 0, 1})
	f.Add(int64(4), []byte{22, 1, 9, 17, 0, 7, 15, 23, 31, 0, 54, 6, 1})
	f.Add(int64(5), []byte{5, 13, 0, 30, 0, 62, 1})
	f.Add(int64(-10), []byte{22, 49, 49, 49, 55})
	// Finite windows (op 4, shape sel/8): an all-+Inf leaf, which makes
	// the whole split infeasible until it is replaced, a pinned core,
	// runs that touch only w=MinWays or only w=MaxWays, with interior
	// +Inf entries, and the same shapes on two cores' leaves.
	f.Add(int64(6), []byte{68, 0, 4, 68, 12, 7, 5, 0})
	f.Add(int64(7), []byte{132, 196, 0, 140, 204, 7, 7, 148, 212, 3, 0})
	f.Add(int64(8), []byte{132, 140, 148, 156, 164, 172, 180, 188, 7, 196, 204, 7})
	f.Add(int64(9), []byte{10, 196, 132, 76, 4, 212, 148, 1, 7, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		energy := func() float64 {
			if rng.Intn(4) == 0 {
				return math.Inf(1)
			}
			return float64(rng.Intn(4)) / 4
		}
		curves := randomCurves(rng, 8)
		for _, cv := range curves {
			for wi := range cv.Energy {
				cv.Energy[wi] = energy()
			}
		}
		n := 8
		total := config.TotalWays(n)
		var ws Workspace
		out := make([]config.Setting, 8)
		for step, op := range append([]byte{0}, script...) {
			sel := int(op >> 3)
			cv := curves[sel%n]
			switch op & 7 {
			case 1: // redraw some entries of one curve
				for wi := range cv.Energy {
					if rng.Intn(2) == 0 {
						cv.Energy[wi] = energy()
					}
				}
			case 2: // redraw 0..n curves
				for _, c := range curves[:n] {
					if rng.Intn(2) == 0 {
						c.Energy[rng.Intn(len(c.Energy))] = energy()
					}
				}
			case 3: // change only the settings a curve picks
				for wi := range cv.Pick {
					cv.Pick[wi].Freq = rng.Intn(config.NumFreqs)
				}
			case 4: // a finite window; sel/8 picks its shape
				keep := rng.Intn(len(cv.Energy))
				for wi := range cv.Energy {
					cv.Energy[wi] = math.Inf(1)
				}
				lo, hi := keep, keep+1 // pinned: one finite entry
				switch sel / 8 {
				case 1: // every entry +Inf
					hi = lo
				case 2: // a run from MinWays that stops short of MaxWays
					lo, hi = 0, max(keep, 1)
				case 3: // a run from above MinWays up to MaxWays
					lo, hi = max(keep, 1), len(cv.Energy)
				}
				for wi := lo; wi < hi; wi++ {
					cv.Energy[wi] = float64(rng.Intn(4)) / 4
					if wi > lo && wi < hi-1 && rng.Intn(4) == 0 {
						cv.Energy[wi] = math.Inf(1) // an interior +Inf entry
					}
				}
			case 5: // donor: every allocation at zero energy
				cv.Energy = [len(cv.Energy)]float64{}
			case 6: // new core count, so ensure rebuilds the tree
				n = 1 + sel%8
				total = config.TotalWays(n)
			case 7: // another total, same core count
				total = n*config.MinWays + rng.Intn(n*(config.MaxWays-config.MinWays)+1)
			}
			ref, okRef := GlobalOptimizeReference(curves[:n], total)
			ok := ws.Optimize(curves[:n], total, out[:n])
			if ok != okRef {
				t.Fatalf("step %d (n=%d, total %d): feasibility %v, reference %v", step, n, total, ok, okRef)
			}
			if ok && !reflect.DeepEqual(out[:n], ref) {
				t.Fatalf("step %d (n=%d, total %d): settings %v, reference %v", step, n, total, out[:n], ref)
			}
		}
	})
}

// TestWorkspaceAfterPanic checks that a call which panics half way
// through the refresh, on a nil curve, leaves no node the next call
// would wrongly reuse: core 2's new curve reached its leaf, but the
// panic on core 3 came before their parent was recombined.
func TestWorkspaceAfterPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	curves := randomCurves(rng, 4)
	total := config.TotalWays(4)
	out := make([]config.Setting, 4)
	var ws Workspace
	ws.Optimize(curves, total, out)
	*curves[2] = *randomCurves(rng, 1)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a nil curve must panic")
			}
		}()
		ws.Optimize([]*Curve{curves[0], curves[1], curves[2], nil}, total, out)
	}()
	ref, okRef := GlobalOptimizeReference(curves, total)
	ok := ws.Optimize(curves, total, out)
	if ok != okRef || (ok && !reflect.DeepEqual(out, ref)) {
		t.Fatalf("after a panic: %v %v, reference %v %v", ok, out, okRef, ref)
	}
}
