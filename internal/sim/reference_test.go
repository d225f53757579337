// Frozen pre-unification engines, retained as equivalence baselines.
//
// Before the engine unification the package held two divergent event
// loops: the static co-simulator (one application pinned per core,
// sim.go) and the dynamic churn engine (per-core job queues, dynamic.go),
// each with the resource manager's optimizer calls welded in. The unified
// engine replaced both; these verbatim copies of the seed loops remain so
// the cross-seed property tests (engine_equiv_test.go) can pin, bit for
// bit, that the unified engine reproduces the outputs of both originals —
// the same retained-reference pattern as db.BuildReference and
// rm.GlobalOptimizeReference. They share only the passive per-core
// interval machinery (advance, finishInterval, startInterval,
// applySetting, chargeRMOverhead), which the refactor did not touch; the
// event loops, RM invocation wiring, optimizer call sites and the seed's
// recompute-every-boundary curve refresh (refreshCurveRef) are frozen
// here, together with the finished-core state only the static loop
// reads (refCore).
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/perfmodel"
	"qosrm/internal/power"
	"qosrm/internal/rm"
)

// refState is the seed engines' per-run working set: the global
// reduction workspace and the assembly slices, as runState looked
// before the policy layer replaced the direct Workspace.Optimize and
// greedy call sites. The greedy sites allocate through a fresh
// rm.NewPolicy(rm.PolicyGreedy) per call, as the seed's one-shot greedy
// call allocated its buffers.
type refState struct {
	ws         rm.Workspace
	curves     []*rm.Curve
	settings   []config.Setting
	pinnedBase *rm.Curve
}

// refCore is the seed static engine's per-core state: the shared
// interval machinery plus the finished flag and the curve a finished
// core is pinned at.
type refCore struct {
	core
	pinned *rm.Curve // set when the core finishes, at its final setting
	fin    bool
}

// pinnedBaseline returns the shared pinned curve at the baseline
// setting — the same for every run, so it is built once.
var pinnedBaseline = sync.OnceValue(func() *rm.Curve {
	return pinnedCurve(config.Baseline())
})

// refreshCurveRef is the seed's curve refresh: the invoking core's
// energy curve recomputed by rm.Localize at every interval boundary,
// from the interval that just finished, with no memoization.
func refreshCurveRef(c *core, d *db.DB, cfg *Config) {
	var pred rm.Predictor = &rm.ModelPredictor{Stats: perfmodel.FromDB(c.stats, c.setting), Model: cfg.Model}
	if cfg.Perfect {
		pred = &oracle{d: d, app: c.app.Name, phase: c.phase}
	}
	cv := rm.Localize(pred, cfg.RM, rm.Options{Alpha: c.alpha})
	c.curve = &cv
	c.hasCurve = true
}

// runStaticReference is the seed static co-simulator: the pre-refactor
// sim.Run event loop, verbatim.
func runStaticReference(d *db.DB, apps []*bench.Benchmark, cfg Config) (*Result, error) {
	cfg.fill()
	n := len(apps)
	if n == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	target := float64(config.LongestAppInstrPaper) / float64(cfg.Scale)
	interval := float64(cfg.Interval)

	cores := make([]*refCore, n)
	for i, a := range apps {
		if d.NumPhases(a.Name) == 0 {
			return nil, fmt.Errorf("sim: database has no data for %q", a.Name)
		}
		c := &refCore{core: core{
			app:     a,
			setting: config.Baseline(),
			alpha:   cfg.Alpha,
			target:  target,
			runLen:  float64(a.TotalInstr) / float64(cfg.Scale),
			phase:   a.PhaseAt(0),
			res:     AppResult{Bench: a.Name},
		}}
		if c.runLen < interval {
			c.runLen = interval // an application runs at least one interval
		}
		var err error
		c.stats, err = d.Stats(a.Name, c.phase, c.setting)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cores[i] = c
	}

	totalWays := config.TotalWays(n)
	res := &Result{}
	st := &refState{
		curves:     make([]*rm.Curve, n),
		settings:   make([]config.Setting, n),
		pinnedBase: pinnedBaseline(),
	}
	now := 0.0

	for {
		// Next event: the earliest per-core interval or target boundary.
		best := -1
		bestT := math.Inf(1)
		for i, c := range cores {
			if c.fin {
				continue
			}
			remInterval := interval - c.intervalDone
			remTarget := c.target - c.executed
			rem := remInterval
			if remTarget < rem {
				rem = remTarget
			}
			t := now + c.stallNs + rem*c.stats.TPI()
			if t < bestT {
				bestT, best = t, i
			}
		}
		if best < 0 {
			break // all cores reached their targets
		}

		// Advance every running core to bestT, charging energy.
		dt := bestT - now
		for _, c := range cores {
			if c.fin {
				continue
			}
			d := dt
			if c.stallNs > 0 {
				// Overhead time passes without retiring instructions.
				s := c.stallNs
				if s > d {
					s = d
				}
				c.stallNs -= s
				d -= s
			}
			c.advance(d / c.stats.TPI())
		}
		now = bestT

		c := cores[best]
		if c.executed >= c.target-1e-6 {
			c.fin = true
			c.res.FinishNs = now
			c.pinned = pinnedCurve(c.setting)
			continue
		}

		// Interval boundary (Figure 5): record QoS, roll the phase, and
		// invoke the RM.
		if cfg.Trace != nil {
			alloc := make([]int, len(cores))
			for i, o := range cores {
				alloc[i] = o.setting.Ways
			}
			cfg.Trace(Event{
				TimeNs:      now,
				Core:        best,
				Bench:       c.app.Name,
				Interval:    c.intervalIdx,
				Phase:       c.phase,
				Setting:     c.setting,
				Allocations: alloc,
			})
		}
		if err := c.finishInterval(d, cfg, now); err != nil {
			return nil, err
		}
		if cfg.RM != rm.Idle {
			res.RMCalled++
			if err := invokeRMStaticRef(d, cfg, cores, best, totalWays, st); err != nil {
				return nil, err
			}
		}
		if err := c.startInterval(d, now); err != nil {
			return nil, err
		}
	}

	res.TimeNs = now
	res.UncoreJ = power.UncorePowerW(n) * now * 1e-9
	res.EnergyJ = res.UncoreJ
	res.Apps = make([]AppResult, n)
	for i, c := range cores {
		res.Apps[i] = c.res
		res.EnergyJ += c.res.EnergyJ
	}
	return res, nil
}

// invokeRMStaticRef is the seed static engine's manager invocation, with
// the optimizer call sites (workspace reduction or greedy heuristic)
// welded in as they were before the policy layer.
func invokeRMStaticRef(d *db.DB, cfg Config, cores []*refCore, inv, totalWays int, st *refState) error {
	c := cores[inv]
	refreshCurveRef(&c.core, d, &cfg)

	curves := st.curves
	for i, o := range cores {
		switch {
		case o.fin:
			curves[i] = o.pinned
		case o.hasCurve:
			curves[i] = o.curve
		default:
			curves[i] = st.pinnedBase
		}
	}
	settings := st.settings
	var ok bool
	if cfg.Policy == rm.PolicyGreedy {
		greedy, _ := rm.NewPolicy(rm.PolicyGreedy)
		ok = greedy.Allocate(curves, totalWays, settings)
	} else {
		ok = st.ws.Optimize(curves, totalWays, settings)
	}
	if !ok {
		return nil
	}

	for i, o := range cores {
		if o.fin {
			continue
		}
		if err := o.applySetting(d, &cfg, settings[i]); err != nil {
			return err
		}
	}
	c.chargeRMOverhead(&cfg, len(cores))
	return nil
}

// runDynamicReference is the seed dynamic churn engine: the pre-
// unification RunDynamic event loop, verbatim (one-shot state; the
// workspace reuse it optionally supported was results-identical).
func runDynamicReference(d *db.DB, dyn Dynamic, cfg Config) (*DynamicResult, error) {
	cfg.fill()
	if err := dyn.Validate(d); err != nil {
		return nil, err
	}
	n := len(dyn.Queues)
	interval := float64(cfg.Interval)

	steps := append([]QoSStep(nil), dyn.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].AtNs < steps[j].AtNs })

	cores := make([]*dynCore, n)
	for i, q := range dyn.Queues {
		c := &dynCore{jobs: q.Jobs, slot: -1, baseAlpha: cfg.Alpha}
		c.setting = config.Baseline()
		c.alpha = cfg.Alpha
		cores[i] = c
	}

	totalWays := config.TotalWays(n)
	res := &DynamicResult{}
	st := &refState{
		curves:     make([]*rm.Curve, n),
		settings:   make([]config.Setting, n),
		pinnedBase: pinnedBaseline(),
	}
	now := 0.0
	stepIdx := 0

	for {
		busy := false
		for _, c := range cores {
			if c.active() || c.next < len(c.jobs) {
				busy = true
				break
			}
		}
		if !busy {
			break
		}

		kind := evNone
		best := -1
		bestT := math.Inf(1)
		if stepIdx < len(steps) {
			kind, bestT = evStep, steps[stepIdx].AtNs
		}
		for i, c := range cores {
			if !c.active() {
				if c.next < len(c.jobs) {
					t := c.jobs[c.next].ArrivalNs
					if t < now {
						t = now // overdue arrivals start immediately
					}
					if t < bestT {
						kind, best, bestT = evArrive, i, t
					}
				}
				continue
			}
			remInterval := interval - c.intervalDone
			remTarget := c.target - c.executed
			rem := remInterval
			if remTarget < rem {
				rem = remTarget
			}
			t := now + c.stallNs + rem*c.stats.TPI()
			if c.depart > 0 && c.depart < t {
				if c.depart < bestT {
					kind, best, bestT = evDepart, i, c.depart
				}
				continue
			}
			if t < bestT {
				kind, best, bestT = evBoundary, i, t
			}
		}
		if kind == evNone {
			break
		}
		if bestT < now {
			bestT = now
		}

		dt := bestT - now
		for _, c := range cores {
			if !c.active() {
				continue
			}
			d := dt
			if c.stallNs > 0 {
				s := c.stallNs
				if s > d {
					s = d
				}
				c.stallNs -= s
				d -= s
			}
			c.advance(d / c.stats.TPI())
		}
		now = bestT

		switch kind {
		case evStep:
			s := steps[stepIdx]
			stepIdx++
			for i, c := range cores {
				if s.Core == -1 || s.Core == i {
					c.baseAlpha = s.Alpha
					if !c.explicitAlpha {
						c.alpha = s.Alpha
					}
				}
			}

		case evArrive:
			if err := startNextRef(cores[best], d, &cfg, now, interval); err != nil {
				return nil, err
			}

		case evDepart:
			if err := transitionRef(d, &cfg, cores, best, totalWays, st, res, now, interval, true); err != nil {
				return nil, err
			}

		case evBoundary:
			c := cores[best]
			// One deliberate deviation from the seed loop: the
			// clock-resolution finish guard (see the unified engine's
			// evBoundary). The seed would spin forever on a sub-ULP
			// work residue — a hang, not a result — so no terminating
			// run's output is changed by sharing the guard here, and the
			// equivalence property tests stay well-defined on every
			// input.
			if rem := c.target - c.executed; rem <= 1e-6 || now+c.stallNs+rem*c.stats.TPI() <= now {
				if err := transitionRef(d, &cfg, cores, best, totalWays, st, res, now, interval, false); err != nil {
					return nil, err
				}
				continue
			}
			if cfg.Trace != nil {
				alloc := make([]int, n)
				for i, o := range cores {
					alloc[i] = o.setting.Ways
				}
				cfg.Trace(Event{
					TimeNs:      now,
					Core:        best,
					Bench:       c.app.Name,
					Interval:    c.intervalIdx,
					Phase:       c.phase,
					Setting:     c.setting,
					Allocations: alloc,
				})
			}
			if err := c.finishInterval(d, cfg, now); err != nil {
				return nil, err
			}
			if cfg.RM != rm.Idle {
				res.RMCalled++
				if err := invokeRMDynamicRef(d, &cfg, cores, best, totalWays, st, true); err != nil {
					return nil, err
				}
			}
			if err := c.startInterval(d, now); err != nil {
				return nil, err
			}
		}
	}

	res.TimeNs = now
	res.UncoreJ = power.UncorePowerW(n) * now * 1e-9
	res.EnergyJ = res.UncoreJ
	for i := 0; i < n; i++ {
		for j := range res.Jobs {
			if res.Jobs[j].Core == i {
				res.EnergyJ += res.Jobs[j].EnergyJ
			}
		}
	}
	return res, nil
}

// transitionRef is the seed engine's job transition.
func transitionRef(d *db.DB, cfg *Config, cores []*dynCore, inv, totalWays int, st *refState, res *DynamicResult, now, interval float64, departed bool) error {
	c := cores[inv]
	c.res.FinishNs = now
	res.Jobs = append(res.Jobs, JobResult{
		Core:      inv,
		Slot:      c.slot,
		AppResult: c.res,
		StartNs:   c.startNs,
		Alpha:     c.alpha,
		Departed:  departed,
	})
	c.slot = -1
	c.app = nil
	c.stats = nil
	c.depart = 0
	c.explicitAlpha = false
	c.hasCurve = false
	c.curve = nil
	if c.next >= len(c.jobs) {
		return nil
	}
	if c.jobs[c.next].ArrivalNs <= now {
		if err := startNextRef(c, d, cfg, now, interval); err != nil {
			return err
		}
	}
	if cfg.RM != rm.Idle {
		res.RMCalled++
		if err := invokeRMDynamicRef(d, cfg, cores, inv, totalWays, st, false); err != nil {
			return err
		}
	}
	return nil
}

// startNextRef is the seed engine's strict-queue-order job start.
func startNextRef(c *dynCore, d *db.DB, cfg *Config, now, interval float64) error {
	j := c.jobs[c.next]
	c.slot = c.next
	c.next++
	c.startNs = now
	c.app = j.App
	c.alpha = c.baseAlpha
	c.explicitAlpha = j.Alpha > 0
	if c.explicitAlpha {
		c.alpha = j.Alpha
	}
	work := j.Work
	if work <= 0 {
		work = float64(config.LongestAppInstrPaper)
	}
	c.target = work / float64(cfg.Scale)
	c.executed = 0
	c.runExec = 0
	c.runLen = float64(j.App.TotalInstr) / float64(cfg.Scale)
	if c.runLen < interval {
		c.runLen = interval
	}
	c.intervalIdx = 0
	c.phase = j.App.PhaseAt(0)
	c.depart = j.DepartNs
	c.res = AppResult{Bench: j.App.Name}
	c.hasCurve = false
	c.curve = nil
	return c.startInterval(d, now)
}

// invokeRMDynamicRef is the seed dynamic engine's manager invocation,
// optimizer call sites welded in.
func invokeRMDynamicRef(d *db.DB, cfg *Config, cores []*dynCore, inv, totalWays int, st *refState, refresh bool) error {
	c := cores[inv]
	if refresh {
		refreshCurveRef(&c.core, d, cfg)
	}

	curves := st.curves
	for i, o := range cores {
		if o.active() && o.hasCurve {
			curves[i] = o.curve
		} else {
			curves[i] = o.pinnedSelf()
		}
	}
	settings := st.settings
	var ok bool
	if cfg.Policy == rm.PolicyGreedy {
		greedy, _ := rm.NewPolicy(rm.PolicyGreedy)
		ok = greedy.Allocate(curves, totalWays, settings)
	} else {
		ok = st.ws.Optimize(curves, totalWays, settings)
	}
	if !ok {
		return nil
	}

	for i, o := range cores {
		if !o.active() {
			o.setting.Ways = settings[i].Ways
			continue
		}
		if err := o.applySetting(d, cfg, settings[i]); err != nil {
			return err
		}
	}
	if c.active() {
		c.chargeRMOverhead(cfg, len(cores))
	}
	return nil
}
