package experiments

import (
	"fmt"
	"io"
	"math"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/cpu"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/trace"
	"qosrm/internal/workload"
)

// The ablation studies quantify design choices the paper either fixes
// (10-bit instruction index, full ATD sampling, α = 1, 100 M-instruction
// intervals) or explicitly defers to future work (the index-width and
// counter-resolution sensitivity of Section III-E).

// IndexBitsPoint is one row of the instruction-index-width ablation.
type IndexBitsPoint struct {
	Bits int
	// LMError is the mean relative error of the ATD leading-miss
	// estimate versus the detailed simulation's ground truth, averaged
	// over core sizes, a way-allocation sample and the probe
	// applications.
	LMError float64
}

// AblationIndexBits measures how the accuracy of the proposed extension
// degrades as the instruction index narrows (the paper's future-work
// question). One representative application per category is probed.
func (c *Context) AblationIndexBits(bits []int) ([]IndexBitsPoint, error) {
	if len(bits) == 0 {
		bits = []int{5, 6, 7, 8, 9, 10}
	}
	probes, err := probeApps()
	if err != nil {
		return nil, err
	}
	out := make([]IndexBitsPoint, 0, len(bits))
	for _, b := range bits {
		var errSum float64
		var n int
		for _, pb := range probes {
			e, m, err := lmEstimateError(pb, b, 0)
			if err != nil {
				return nil, err
			}
			errSum += e
			n += m
		}
		if n == 0 {
			return nil, fmt.Errorf("experiments: index-bits ablation measured nothing")
		}
		out = append(out, IndexBitsPoint{Bits: b, LMError: errSum / float64(n)})
	}
	return out, nil
}

// SamplingPoint is one row of the ATD set-sampling ablation.
type SamplingPoint struct {
	Shift int // 1-in-2^Shift sets observed
	// MissCurveError is the mean relative error of the estimated miss
	// curve versus full profiling, over allocations and probes.
	MissCurveError float64
	// LMError is as in IndexBitsPoint.
	LMError float64
}

// AblationSampling measures estimate quality versus ATD area (set
// sampling), the standard UCP trade-off.
func (c *Context) AblationSampling(shifts []int) ([]SamplingPoint, error) {
	if len(shifts) == 0 {
		shifts = []int{0, 1, 2, 3}
	}
	probes, err := probeApps()
	if err != nil {
		return nil, err
	}
	out := make([]SamplingPoint, 0, len(shifts))
	for _, s := range shifts {
		var lmSum, curveSum float64
		var lmN, curveN int
		for _, pb := range probes {
			le, lm, err := lmEstimateError(pb, atd.DefaultIndexBits, uint(s))
			if err != nil {
				return nil, err
			}
			ce, cn, err := missCurveError(pb, uint(s))
			if err != nil {
				return nil, err
			}
			lmSum += le
			lmN += lm
			curveSum += ce
			curveN += cn
		}
		p := SamplingPoint{Shift: s}
		if lmN > 0 {
			p.LMError = lmSum / float64(lmN)
		}
		if curveN > 0 {
			p.MissCurveError = curveSum / float64(curveN)
		}
		out = append(out, p)
	}
	return out, nil
}

// AlphaPoint is one row of the QoS-relaxation ablation.
type AlphaPoint struct {
	Alpha     float64
	Saving    float64 // RM3/Model3 weighted-average saving
	Violation float64 // mean per-interval violation rate
}

// AblationAlpha sweeps the QoS relaxation parameter α of Eq. 3 on a
// reduced Figure 6 workload set: savings grow with slack, at the price
// of guaranteed-by-construction slowdowns.
func (c *Context) AblationAlpha(alphas []float64) ([]AlphaPoint, error) {
	if len(alphas) == 0 {
		alphas = []float64{1.0, 1.05, 1.1, 1.2}
	}
	wls, err := ablationWorkloads(c)
	if err != nil {
		return nil, err
	}
	out := make([]AlphaPoint, 0, len(alphas))
	for _, a := range alphas {
		var save, viol float64
		for _, wl := range wls {
			cfg := c.simConfig(rm.RM3, perfmodel.Model3, false, false)
			cfg.Alpha = a
			s, r, err := c.savings(wl.Apps, cfg)
			if err != nil {
				return nil, err
			}
			save += s / float64(len(wls))
			viol += r.ViolationRate() / float64(len(wls))
		}
		out = append(out, AlphaPoint{Alpha: a, Saving: save, Violation: viol})
	}
	return out, nil
}

// GlobalOptPoint compares the paper's optimal pairwise reduction with
// the greedy marginal-utility heuristic on the same workloads.
type GlobalOptPoint struct {
	Strategy string
	Saving   float64
}

// AblationGlobalOpt quantifies how much energy the optimal reduction
// buys over the classic greedy way-partitioning heuristic.
func (c *Context) AblationGlobalOpt() ([]GlobalOptPoint, error) {
	wls, err := ablationWorkloads(c)
	if err != nil {
		return nil, err
	}
	out := []GlobalOptPoint{{Strategy: "optimal (paper)"}, {Strategy: "greedy"}}
	for _, wl := range wls {
		for i, policy := range []string{rm.PolicyModel3, rm.PolicyGreedy} {
			cfg := c.simConfig(rm.RM3, perfmodel.Model3, false, false)
			cfg.Policy = policy
			s, _, err := c.savings(wl.Apps, cfg)
			if err != nil {
				return nil, err
			}
			out[i].Saving += s / float64(len(wls))
		}
	}
	return out, nil
}

// IntervalPoint is one row of the interval-length ablation.
type IntervalPoint struct {
	Interval int64
	Saving   float64
	RMCalls  int64
}

// AblationInterval sweeps the RM invocation granularity: shorter
// intervals track phases more closely but multiply the Section III-E
// overheads.
func (c *Context) AblationInterval(intervals []int64) ([]IntervalPoint, error) {
	if len(intervals) == 0 {
		intervals = []int64{25_000_000, 50_000_000, 100_000_000, 200_000_000}
	}
	wls, err := ablationWorkloads(c)
	if err != nil {
		return nil, err
	}
	out := make([]IntervalPoint, 0, len(intervals))
	for _, iv := range intervals {
		var save float64
		var calls int64
		for _, wl := range wls {
			cfg := c.simConfig(rm.RM3, perfmodel.Model3, false, false)
			cfg.Interval = iv
			s, r, err := c.savings(wl.Apps, cfg)
			if err != nil {
				return nil, err
			}
			save += s / float64(len(wls))
			calls += r.RMCalled
		}
		out = append(out, IntervalPoint{Interval: iv, Saving: save, RMCalls: calls})
	}
	return out, nil
}

// ablationWorkloads returns a small fixed 4-core workload set spanning
// the scenarios.
func ablationWorkloads(c *Context) ([]workload.Workload, error) {
	var out []workload.Workload
	for _, s := range workload.Scenarios {
		wls, err := workload.Generate(s, 4, 1, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, wls...)
	}
	return out, nil
}

// probeApps picks one representative application per category.
func probeApps() ([]*bench.Benchmark, error) {
	var out []*bench.Benchmark
	for _, name := range []string{"mcf", "xalancbmk", "bwaves", "astar"} {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// ablationTraceLen bounds the detailed re-simulation cost of the
// hardware ablations.
const ablationTraceLen = 16384

// lmEstimateError runs one application's first phase at the baseline
// setting with a custom ATD and compares the extension's leading-miss
// estimates against detailed-simulation ground truth over all core
// sizes and a spread of allocations. It returns the summed relative
// error and the number of points.
func lmEstimateError(b *bench.Benchmark, indexBits int, shift uint) (float64, int, error) {
	p := b.Phases[0].Params
	insts := trace.Generate(p, ablationTraceLen*2)
	full := cpu.Annotate(insts)
	tail := full.Tail(ablationTraceLen)

	d, err := atd.NewWithIndexBits(shift, indexBits)
	if err != nil {
		return 0, 0, err
	}
	full.WarmATD(d, ablationTraceLen)
	cpu.Run(tail, cpu.RunConfig{
		Core: config.SizeM, Ways: config.BaseWays, FreqGHz: config.FBaseGHz, ATD: d,
	})

	var errSum float64
	var n int
	for _, cs := range config.Sizes {
		for _, w := range []int{2, 5, 8, 12, 16} {
			truth := cpu.Run(tail, cpu.RunConfig{
				Core: cs, Ways: w, FreqGHz: config.FBaseGHz,
			})
			if truth.LeadingMisses == 0 {
				continue
			}
			est := float64(d.LeadingMisses(cs, w))
			errSum += math.Abs(est-float64(truth.LeadingMisses)) / float64(truth.LeadingMisses)
			n++
		}
	}
	return errSum, n, nil
}

// missCurveError compares a sampled ATD's miss curve against a
// full-profiling ATD over the same run.
func missCurveError(b *bench.Benchmark, shift uint) (float64, int, error) {
	p := b.Phases[0].Params
	insts := trace.Generate(p, ablationTraceLen*2)
	full := cpu.Annotate(insts)
	tail := full.Tail(ablationTraceLen)

	exact := atd.MustNew(0)
	sampled, err := atd.New(shift)
	if err != nil {
		return 0, 0, err
	}
	full.WarmATD(exact, ablationTraceLen)
	full.WarmATD(sampled, ablationTraceLen)
	rc := cpu.RunConfig{Core: config.SizeM, Ways: config.BaseWays, FreqGHz: config.FBaseGHz, ATD: exact}
	cpu.Run(tail, rc)
	rc.ATD = sampled
	cpu.Run(tail, rc)

	var errSum float64
	var n int
	for w := config.MinWays; w <= config.MaxWays; w++ {
		truth := float64(exact.Misses(w))
		if truth == 0 {
			continue
		}
		errSum += math.Abs(float64(sampled.Misses(w))-truth) / truth
		n++
	}
	return errSum, n, nil
}

// RenderAblation prints all four studies.
func RenderAblation(w io.Writer, bits []IndexBitsPoint, sampling []SamplingPoint,
	alphas []AlphaPoint, intervals []IntervalPoint) {
	fmt.Fprintln(w, "ABLATION: instruction-index width (paper Section III-E future work)")
	for _, p := range bits {
		fmt.Fprintf(w, "  %2d bits: mean LM estimate error %6.1f%%\n", p.Bits, p.LMError*100)
	}
	fmt.Fprintln(w, "ABLATION: ATD set sampling")
	for _, p := range sampling {
		fmt.Fprintf(w, "  1/%-2d sets: miss-curve error %5.1f%%, LM error %6.1f%%\n",
			1<<p.Shift, p.MissCurveError*100, p.LMError*100)
	}
	fmt.Fprintln(w, "ABLATION: QoS relaxation α (Eq. 3)")
	for _, p := range alphas {
		fmt.Fprintf(w, "  α=%.2f: saving %6.2f%%, violation rate %.3f\n",
			p.Alpha, p.Saving*100, p.Violation)
	}
	fmt.Fprintln(w, "ABLATION: RM interval length")
	for _, p := range intervals {
		fmt.Fprintf(w, "  %4dM instructions: saving %6.2f%% (%d RM invocations)\n",
			p.Interval/1_000_000, p.Saving*100, p.RMCalls)
	}
}

// RenderGlobalOptAblation prints the optimiser-strategy comparison.
func RenderGlobalOptAblation(w io.Writer, points []GlobalOptPoint) {
	fmt.Fprintln(w, "ABLATION: global optimisation strategy")
	for _, p := range points {
		fmt.Fprintf(w, "  %-16s saving %6.2f%%\n", p.Strategy, p.Saving*100)
	}
}
