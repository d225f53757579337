// Package rm implements the paper's resource managers: the local
// optimisation that turns one core's interval statistics into an energy
// curve E*(w) with per-allocation core size c*(w) and frequency f*(w)
// choices, and the global optimisation that recursively reduces the
// per-core curves into the energy-optimal LLC way distribution
// (Section III-A/III-B, Figure 3).
//
// Three manager kinds reproduce the paper's comparison:
//
//   - RM1 partitions the LLC only (core size and VF stay at baseline);
//   - RM2 coordinates per-core DVFS with partitioning (prior art [8]);
//   - RM3 — the proposal — additionally adapts the core size.
package rm

import (
	"fmt"
	"math"

	"qosrm/internal/config"
	"qosrm/internal/energymodel"
	"qosrm/internal/perfmodel"
)

// Kind identifies a resource manager variant.
type Kind int

// The managers compared throughout the evaluation. Idle keeps the
// baseline setting and is the energy-savings reference (Section IV-D1).
const (
	Idle Kind = iota
	RM1
	RM2
	RM3
)

// Kinds lists the active managers in paper order.
var Kinds = []Kind{RM1, RM2, RM3}

// String returns the paper's name for the manager.
func (k Kind) String() string {
	switch k {
	case Idle:
		return "Idle"
	case RM1:
		return "RM1"
	case RM2:
		return "RM2"
	case RM3:
		return "RM3"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Predictor estimates next-interval time and energy per instruction for
// candidate settings. The model-driven implementation wraps
// perfmodel/energymodel; a perfect-oracle implementation (used for the
// "perfect model" bars of Figures 2 and 9) reads the database directly.
type Predictor interface {
	// TimePI returns predicted ns per instruction at target.
	TimePI(target config.Setting) float64
	// EnergyPI returns predicted joules per instruction at target.
	EnergyPI(target config.Setting) float64
}

// ModelPredictor predicts with the online models of the paper.
type ModelPredictor struct {
	Stats perfmodel.IntervalStats
	Model perfmodel.Kind
}

// TimePI implements Predictor via Eq. 1.
func (m *ModelPredictor) TimePI(target config.Setting) float64 {
	return m.Stats.TimePI(m.Model, target)
}

// EnergyPI implements Predictor via Eq. 4–5.
func (m *ModelPredictor) EnergyPI(target config.Setting) float64 {
	return energymodel.EnergyPI(&m.Stats, m.Model, target)
}

// Curve is one core's local-optimisation result: for every way
// allocation w, the minimum predicted energy per instruction that still
// satisfies QoS, and the (core size, frequency) pair achieving it.
// Infeasible allocations carry +Inf energy.
type Curve struct {
	// Energy[w-MinWays] is E*(w) in joules per instruction.
	Energy [perfmodel.NumWays]float64
	// Pick[w-MinWays] is the chosen setting at allocation w; its Ways
	// field equals w for valid entries.
	Pick [perfmodel.NumWays]config.Setting
}

// Options tunes the local optimisation.
type Options struct {
	// Alpha is the QoS relaxation parameter of Eq. 3 (paper: 1.0).
	Alpha float64
}

func (o Options) alpha() float64 {
	if o.Alpha <= 0 {
		return config.QoSAlpha
	}
	return o.Alpha
}

// Localize runs the local optimisation for one core: it scans the
// setting space permitted by kind and returns the energy curve, the
// f*(w) and c*(w) choices folded into Curve.Pick.
//
// The QoS reference is the predicted time at the baseline setting,
// evaluated with the same predictor (Eq. 3); using the same model for
// both sides is what lets consistent model bias cancel.
func Localize(p Predictor, kind Kind, opts Options) Curve {
	base := config.Baseline()
	budget := p.TimePI(base) * opts.alpha()

	var cv Curve
	for i := range cv.Energy {
		cv.Energy[i] = math.Inf(1)
	}

	cores, freqs := searchSpace(kind)
	for wi := 0; wi < perfmodel.NumWays; wi++ {
		w := config.MinWays + wi
		for _, c := range cores {
			for _, f := range freqs {
				s := config.Setting{Core: c, Freq: f, Ways: w}
				if p.TimePI(s) > budget {
					continue
				}
				if e := p.EnergyPI(s); e < cv.Energy[wi] {
					cv.Energy[wi] = e
					cv.Pick[wi] = s
				}
				// Frequencies are scanned in ascending order; for a
				// fixed (c, w) the first QoS-feasible frequency is the
				// minimum one, f*(w). Higher frequencies cost strictly
				// more energy under the V²f model, so stop here.
				break
			}
		}
	}
	return cv
}

// Shared search-space tables: Localize runs at every interval boundary
// of every co-simulated core, so its per-call slices are hoisted here
// once. All slices are read-only.
var (
	allFreqs = func() []int {
		f := make([]int, config.NumFreqs)
		for i := range f {
			f[i] = i
		}
		return f
	}()
	baseFreqOnly = []int{config.BaseFreqIdx}
	baseCoreOnly = []config.CoreSize{config.SizeM}
	allCores     = []config.CoreSize{config.SizeS, config.SizeM, config.SizeL}
)

// searchSpace returns the core sizes and frequency indices a manager
// kind may choose from. Frequencies are ascending so the first feasible
// one is f*. The returned slices are shared and must not be mutated.
func searchSpace(kind Kind) ([]config.CoreSize, []int) {
	switch kind {
	case Idle:
		return baseCoreOnly, baseFreqOnly
	case RM1:
		// LLC partitioning only: baseline core and VF.
		return baseCoreOnly, baseFreqOnly
	case RM2:
		// Partitioning + per-core DVFS (prior art).
		return baseCoreOnly, allFreqs
	case RM3:
		// Partitioning + DVFS + core adaptation (proposed).
		return allCores, allFreqs
	default:
		panic(fmt.Sprintf("rm: unknown kind %d", int(kind)))
	}
}
