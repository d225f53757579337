// The unified event-driven engine. One loop executes every workload
// shape the package offers — the paper's static mixes (a degenerate
// one-job-per-core schedule, see StaticWorkload), multiprogrammed churn
// with arrivals and departures, per-app QoS relaxation, mid-run QoS
// steps, queue priorities with preemption, and idle-way donation — and
// delegates every allocation decision to the run's rm.Policy. The
// pre-unification static and dynamic loops are retained verbatim in
// reference_test.go and the cross-seed property tests pin this engine
// bit-identical to both on their shared feature set.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/power"
	"qosrm/internal/rm"
)

// dynCore is the engine's per-core state: the shared interval machinery
// plus the queue position, the priority scheduler's bookkeeping and
// memoized self-pinned/donor curves.
type dynCore struct {
	core
	jobs    []Job
	next    int // strict-order queues: index of the next job to start
	slot    int // index of the running job; -1 while idle
	startNs float64
	depart  float64 // running job's departure time (0 = none)
	// baseAlpha is the relaxation jobs without an explicit Alpha inherit:
	// Config.Alpha until a QoS step overwrites it. explicitAlpha marks a
	// running job that carries its own Alpha, which QoS steps respect.
	baseAlpha     float64
	explicitAlpha bool

	// prioritized marks a queue with any non-zero Job.Priority: it runs
	// under the priority scheduler (done/susp below) instead of the
	// strict next cursor, whose behaviour it reproduces exactly when all
	// priorities tie.
	prioritized bool
	done        []bool      // job finished or departed
	susp        []suspState // saved progress of preempted jobs

	// pinnedCv caches pinnedCurve(setting) for the core's current
	// setting; idle cores and cores whose running job has not produced
	// statistics yet enter the global optimisation pinned there. donorCv
	// likewise caches the drained core's zero-energy donor curve.
	pinnedCv *rm.Curve
	pinnedAt config.Setting
	donorCv  *rm.Curve
	donorAt  config.Setting
}

// suspState is a preempted job's saved progress: everything start()
// restores so the job resumes where it stopped. The partial interval cut
// by the preemption keeps its energy and executed work but produces no
// QoS sample (the same rule as a mid-interval departure).
type suspState struct {
	suspended   bool
	executed    float64
	runExec     float64
	target      float64
	runLen      float64
	intervalIdx int64
	startNs     float64
	res         AppResult
	preemptions int
}

// pinnedSelf returns the curve that represents this core as immovable at
// its current setting.
func (c *dynCore) pinnedSelf() *rm.Curve {
	if c.pinnedCv == nil || c.pinnedAt != c.setting {
		c.pinnedCv = pinnedCurve(c.setting)
		c.pinnedAt = c.setting
	}
	return c.pinnedCv
}

// donorSelf returns the drained core's donor curve: any way count at
// zero energy, core size and frequency held at the final setting.
func (c *dynCore) donorSelf() *rm.Curve {
	if c.donorCv == nil || c.donorAt != c.setting {
		c.donorCv = donorCurve(c.setting)
		c.donorAt = c.setting
	}
	return c.donorCv
}

// active reports whether a job is currently executing on the core.
func (c *dynCore) active() bool { return c.slot >= 0 }

// pending reports whether any queued job has yet to finish or depart.
func (c *dynCore) pending() bool {
	if c.prioritized {
		for i := range c.jobs {
			if !c.done[i] && i != c.slot {
				return true
			}
		}
		return false
	}
	return c.next < len(c.jobs)
}

// drained reports a core whose queue is exhausted — the unified
// generalisation of the static engine's finished core.
func (c *dynCore) drained() bool { return !c.active() && !c.pending() }

// startable reports whether a pending job could start right now: the
// strict cursor's job has arrived, or (priority queues) any fresh job
// has arrived or a suspended one is waiting to resume.
func (c *dynCore) startable(now float64) bool {
	if c.prioritized {
		return c.pickJob(now) >= 0
	}
	return c.next < len(c.jobs) && c.jobs[c.next].ArrivalNs <= now
}

// pickJob selects the job a free prioritized core runs next at time now:
// the highest-priority available candidate (suspended jobs are always
// available; fresh ones once arrived), ties keeping queue order. -1 when
// nothing is available yet.
func (c *dynCore) pickJob(now float64) int {
	best := -1
	for i := range c.jobs {
		if c.done[i] || i == c.slot {
			continue
		}
		if !c.susp[i].suspended && c.jobs[i].ArrivalNs > now {
			continue
		}
		if best < 0 || c.jobs[i].Priority > c.jobs[best].Priority {
			best = i
		}
	}
	return best
}

// nextEventAt returns the earliest time the idle core could start a job
// (+Inf when the queue is drained).
func (c *dynCore) nextEventAt(now float64) float64 {
	if !c.prioritized {
		if c.next >= len(c.jobs) {
			return math.Inf(1)
		}
		if t := c.jobs[c.next].ArrivalNs; t > now {
			return t
		}
		return now // overdue arrivals start immediately
	}
	t := math.Inf(1)
	for i := range c.jobs {
		if c.done[i] || i == c.slot {
			continue
		}
		at := now
		if !c.susp[i].suspended && c.jobs[i].ArrivalNs > now {
			at = c.jobs[i].ArrivalNs
		}
		if at < t {
			t = at
		}
	}
	return t
}

// preemptAt returns the earliest arrival of a fresh job whose priority
// strictly exceeds the running job's — the core's next preemption point
// (ok=false when none is scheduled).
func (c *dynCore) preemptAt(now float64) (float64, bool) {
	run := c.jobs[c.slot].Priority
	t := math.Inf(1)
	for i := range c.jobs {
		if c.done[i] || i == c.slot || c.susp[i].suspended || c.jobs[i].Priority <= run {
			continue
		}
		at := c.jobs[i].ArrivalNs
		if at < now {
			at = now
		}
		if at < t {
			t = at
		}
	}
	return t, !math.IsInf(t, 1)
}

// clearRunning detaches the finished/departed/suspended job from the
// core; the core idles at its current setting.
func (c *dynCore) clearRunning() {
	c.slot = -1
	c.app = nil
	c.stats = nil
	c.depart = 0
	c.explicitAlpha = false
	c.hasCurve = false
	c.curve = nil
}

// suspend parks the running job so a higher-priority arrival can take
// the core; start() later restores the saved progress. Energy and
// executed instructions of the cut interval are already accounted; like
// a mid-interval departure it contributes no QoS sample.
func (c *dynCore) suspend() {
	s := &c.susp[c.slot]
	s.suspended = true
	s.executed = c.executed
	s.runExec = c.runExec
	s.target = c.target
	s.runLen = c.runLen
	s.intervalIdx = c.intervalIdx
	s.startNs = c.startNs
	s.res = c.res
	s.preemptions++
	c.clearRunning()
}

// startNext begins the core's next job at the core's current setting:
// the strict cursor's job, or the priority scheduler's pick (resuming a
// suspended job's saved progress). The caller guarantees startable(now).
// A job whose departure time already passed departs again immediately
// (as a zero-work departure event) on the next loop turn.
func (c *dynCore) startNext(d *db.DB, cfg *Config, now, interval float64) error {
	idx := c.next
	if c.prioritized {
		idx = c.pickJob(now)
	} else {
		c.next++
	}
	j := c.jobs[idx]
	c.slot = idx
	c.alpha = c.baseAlpha
	c.explicitAlpha = j.Alpha > 0
	if c.explicitAlpha {
		c.alpha = j.Alpha
	}
	c.app = j.App
	c.depart = j.DepartNs
	c.hasCurve = false
	c.curve = nil
	if c.prioritized && c.susp[idx].suspended {
		// Resume where the preemption cut the job off.
		s := &c.susp[idx]
		s.suspended = false
		c.startNs = s.startNs
		c.executed = s.executed
		c.runExec = s.runExec
		c.target = s.target
		c.runLen = s.runLen
		c.intervalIdx = s.intervalIdx
		c.res = s.res
	} else {
		c.startNs = now
		work := j.Work
		if work <= 0 {
			work = float64(config.LongestAppInstrPaper)
		}
		c.target = work / float64(cfg.Scale)
		c.executed = 0
		c.runExec = 0
		c.runLen = float64(j.App.TotalInstr) / float64(cfg.Scale)
		if c.runLen < interval {
			c.runLen = interval // an application runs at least one interval
		}
		c.intervalIdx = 0
		c.res = AppResult{Bench: j.App.Name}
	}
	c.phase = j.App.PhaseAt(c.intervalIdx)
	return c.startInterval(d, now)
}

// event kinds of the engine's main loop. Simultaneous events resolve by
// scan order: QoS steps apply before anything else at the same instant,
// then cores in index order; within one core a departure or preemption
// fires only when strictly earlier than the core's interval or target
// boundary (and a departure beats a preemption on an exact tie), so a
// job completing its work at the same instant wins.
const (
	evNone = iota
	evStep
	evDepart
	evBoundary
	evArrive
	evPreempt
)

// runState is the per-run working set of the RM invocation path, reused
// across interval boundaries so the hot path stays allocation-free: the
// database's curve table memoizes Localize per measured (phase, setting)
// record, the policy instance carries the allocation optimizer's scratch
// state (the model3 reduction arena), and the slices are assembled in
// place on every invocation.
type runState struct {
	table    *curveTable
	policy   rm.Policy
	curves   []*rm.Curve
	settings []config.Setting
}

// RunWorkspace is the reusable working set of co-simulations: the
// per-core state, the sorted step schedule and the allocation policy's
// buffers, all retained across runs so a scenario sweep executes each
// spec (and its idle twin) without rebuilding them. The policy instance
// is swapped when a run selects a different policy; everything else is
// config-independent. Local-optimisation curves are not kept here but
// in the table of the database a run reads, which every workspace
// shares. The zero value is ready. Not safe for concurrent use — use
// one workspace per sweep worker.
type RunWorkspace struct {
	steps []QoSStep
	cores []dynCore
	ptrs  []*dynCore
	st    runState
	// traceAlloc backs Event.Allocations for Config.Trace callbacks; it
	// is reused every interval, which is why traced events are only
	// valid during the callback (see Event.Allocations).
	traceAlloc []int
}

// scope prepares the workspace's run state for a run against (d, cfg):
// buffers are resized for n cores, the policy instance is (re)built for
// the run's effective policy name, and d's curve table is resolved once
// for the whole run. Idle-manager runs never invoke the RM, so they
// skip the table.
func (w *RunWorkspace) scope(d *db.DB, cfg *Config, n int) (*runState, error) {
	w.st.table = nil
	if cfg.RM != rm.Idle {
		w.st.table = curvesFor(d)
	}
	if name := cfg.policyName(); w.st.policy == nil || w.st.policy.Name() != name {
		p, err := rm.NewPolicy(name)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		w.st.policy = p
	}
	if cap(w.st.curves) < n {
		w.st.curves = make([]*rm.Curve, n)
		w.st.settings = make([]config.Setting, n)
	}
	w.st.curves = w.st.curves[:n]
	w.st.settings = w.st.settings[:n]
	return &w.st, nil
}

// reset prepares the core for a new run over queue q, retaining the
// memoized pinned/donor curves (they depend only on settings) and the
// priority scheduler's slices.
func (c *dynCore) reset(q Queue, cfg *Config) {
	*c = dynCore{jobs: q.Jobs, slot: -1, baseAlpha: cfg.Alpha,
		pinnedCv: c.pinnedCv, pinnedAt: c.pinnedAt,
		donorCv: c.donorCv, donorAt: c.donorAt,
		done: c.done, susp: c.susp}
	c.setting = config.Baseline()
	c.alpha = cfg.Alpha
	for i := range q.Jobs {
		if q.Jobs[i].Priority != 0 {
			c.prioritized = true
			break
		}
	}
	if c.prioritized {
		n := len(q.Jobs)
		if cap(c.done) < n {
			c.done = make([]bool, n)
			c.susp = make([]suspState, n)
		} else {
			c.done = c.done[:n]
			c.susp = c.susp[:n]
			clear(c.done)
			clear(c.susp)
		}
	}
}

// runEngine is the unified co-simulation loop; every public entry point
// (Run, RunCtx, RunDynamicWS and RunDynamicCtx) routes through it.
func runEngine(ctx context.Context, d *db.DB, dyn Dynamic, cfg Config, ws *RunWorkspace) (*DynamicResult, error) {
	cfg.fill()
	if err := dyn.Validate(d); err != nil {
		return nil, err
	}
	n := len(dyn.Queues)
	interval := float64(cfg.Interval)
	if ws == nil {
		ws = &RunWorkspace{}
	}

	// Steps apply in time order; sort a reused copy so specs may list
	// them in any order (ties keep spec order).
	steps := append(ws.steps[:0], dyn.Steps...)
	ws.steps = steps
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].AtNs < steps[j].AtNs })

	if cap(ws.cores) < n {
		ws.cores = make([]dynCore, n)
		ws.ptrs = make([]*dynCore, n)
	}
	ws.cores = ws.cores[:n]
	cores := ws.ptrs[:n]
	for i, q := range dyn.Queues {
		c := &ws.cores[i]
		c.reset(q, &cfg)
		cores[i] = c
	}

	totalWays := config.TotalWays(n)
	res := &DynamicResult{}
	st, err := ws.scope(d, &cfg, n)
	if err != nil {
		return nil, err
	}
	now := 0.0
	stepIdx := 0

	for {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		// Once every queue is drained, remaining QoS steps have nothing
		// left to retarget: end the run instead of letting no-op step
		// events stretch the wall clock (and with it the uncore energy).
		busy := false
		for _, c := range cores {
			if c.active() || c.pending() {
				busy = true
				break
			}
		}
		if !busy {
			break
		}

		// Next event: the earliest QoS step, departure, preemption,
		// interval/target boundary or arrival across the system.
		// Candidates are scanned in a fixed order with strict
		// comparisons, so simultaneous events resolve deterministically:
		// the earlier-scanned candidate wins a tie — the step schedule
		// first, then cores in index order (within one core, a departure
		// or preemption fires only when strictly earlier than the core's
		// own boundary, and a departure beats a preemption on a tie).
		kind := evNone
		best := -1
		bestT := math.Inf(1)
		if stepIdx < len(steps) {
			kind, bestT = evStep, steps[stepIdx].AtNs
		}
		for i, c := range cores {
			if !c.active() {
				if t := c.nextEventAt(now); t < bestT {
					kind, best, bestT = evArrive, i, t
				}
				continue
			}
			remInterval := interval - c.intervalDone
			remTarget := c.target - c.executed
			rem := remInterval
			if remTarget < rem {
				rem = remTarget
			}
			kindC := evBoundary
			tC := now + c.stallNs + rem*c.stats.TPI()
			if c.depart > 0 && c.depart < tC {
				kindC, tC = evDepart, c.depart
			}
			if c.prioritized {
				if tp, ok := c.preemptAt(now); ok && tp < tC {
					kindC, tC = evPreempt, tp
				}
			}
			if tC < bestT {
				kind, best, bestT = kindC, i, tC
			}
		}
		if kind == evNone {
			break // nothing left but exhausted step/queue state
		}
		if bestT < now {
			bestT = now
		}

		// Advance every running core to bestT, charging energy.
		dt := bestT - now
		for _, c := range cores {
			if !c.active() {
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

		switch kind {
		case evStep:
			s := steps[stepIdx]
			stepIdx++
			// A step retargets the core's base relaxation and the running
			// job, unless that job carries its own explicit per-app
			// relaxation — an explicit alpha is a per-job contract.
			for i, c := range cores {
				if s.Core == -1 || s.Core == i {
					c.baseAlpha = s.Alpha
					if !c.explicitAlpha {
						c.alpha = s.Alpha
					}
				}
			}

		case evArrive:
			if err := cores[best].startNext(d, &cfg, now, interval); err != nil {
				return nil, err
			}

		case evPreempt:
			// A strictly higher-priority job arrived: park the running
			// job, start the scheduler's pick, and re-optimise — the
			// preempting application has produced no statistics yet, so
			// the core enters pinned, exactly like churn.
			c := cores[best]
			c.suspend()
			if err := c.startNext(d, &cfg, now, interval); err != nil {
				return nil, err
			}
			if cfg.RM != rm.Idle {
				res.RMCalled++
				if err := invokeRM(d, &cfg, cores, best, totalWays, st, false); err != nil {
					return nil, err
				}
			}

		case evDepart:
			if err := transition(d, &cfg, cores, best, totalWays, st, res, now, interval, true); err != nil {
				return nil, err
			}

		case evBoundary:
			c := cores[best]
			// A job finishes when it reaches its target — or when the
			// residual work is too small for the simulation clock to
			// advance (now + rem·TPI rounds back to now). Fractional
			// Work targets can leave a sub-ULP instruction residue at
			// large simulated times; without the clock-resolution guard
			// this boundary would replay forever without retiring
			// anything (the seed engines shared the trap — no
			// terminating run is affected, see reference_test.go).
			if rem := c.target - c.executed; rem <= 1e-6 || now+c.stallNs+rem*c.stats.TPI() <= now {
				if err := transition(d, &cfg, cores, best, totalWays, st, res, now, interval, false); err != nil {
					return nil, err
				}
				continue
			}
			// Interval boundary (Figure 5): record QoS, roll the phase,
			// and invoke the RM.
			if cfg.Trace != nil {
				// Reuse the workspace's snapshot buffer across events: the
				// callback only sees Allocations for the duration of the
				// call, and a traced run must not allocate per interval.
				if cap(ws.traceAlloc) < n {
					ws.traceAlloc = make([]int, n)
				}
				alloc := ws.traceAlloc[:n]
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
				if err := invokeRM(d, &cfg, cores, best, totalWays, st, true); err != nil {
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
	// Jobs are recorded in completion order; total in core order so the
	// summation sequence — and with it the floating-point result —
	// matches the seed static engine's per-core accumulation exactly.
	for i := 0; i < n; i++ {
		for j := range res.Jobs {
			if res.Jobs[j].Core == i {
				res.EnergyJ += res.Jobs[j].EnergyJ
			}
		}
	}
	return res, nil
}

// transition ends core inv's running job (departed tells why), triggers
// the churn re-optimisation when the queue continues (or, with way
// donation, when it drains), and starts the next job if one is
// available.
func transition(d *db.DB, cfg *Config, cores []*dynCore, inv, totalWays int, st *runState, res *DynamicResult, now, interval float64, departed bool) error {
	c := cores[inv]
	c.res.FinishNs = now
	jr := JobResult{
		Core:      inv,
		Slot:      c.slot,
		AppResult: c.res,
		StartNs:   c.startNs,
		Alpha:     c.alpha,
		Departed:  departed,
	}
	if c.prioritized {
		c.done[c.slot] = true
		jr.Preemptions = c.susp[c.slot].preemptions
	}
	res.Jobs = append(res.Jobs, jr)
	c.clearRunning()
	if !c.pending() {
		// Queue drained: the core idles forever at its final setting —
		// the static engine's finished-core behaviour. With way donation
		// the drain itself re-optimises, so the freed ways redistribute
		// to the still-running cores immediately.
		if cfg.DonateIdleWays && cfg.RM != rm.Idle {
			res.RMCalled++
			return invokeRM(d, cfg, cores, inv, totalWays, st, false)
		}
		return nil
	}

	// The next job starts now if one is available; otherwise the core
	// idles until the arrival event fires.
	if c.startable(now) {
		if err := c.startNext(d, cfg, now, interval); err != nil {
			return err
		}
	}

	// Churn re-optimisation (the "RM re-optimises when an application
	// finishes or departs" rule): the transitioning core enters pinned
	// at its current setting — the incoming application has produced no
	// statistics and the partition is physical — and every other core's
	// latest curve is re-reduced so the rest of the system can shift its
	// allocations in response to the churn.
	if cfg.RM != rm.Idle {
		res.RMCalled++
		if err := invokeRM(d, cfg, cores, inv, totalWays, st, false); err != nil {
			return err
		}
	}
	return nil
}

// invokeRM is the engine's manager invocation. With refresh set (the
// interval-boundary path) the invoking core rebuilds its curve from the
// interval that just completed; churn, preemption and drain boundaries
// pass refresh=false and the transitioning core enters pinned instead,
// since its incoming application has not produced statistics yet. Idle
// cores are pinned at their current setting, so their physically held
// ways are never redistributed — except drained cores under
// Config.DonateIdleWays, which enter with the zero-energy donor curve
// and give their ways back. The allocation decision itself is the run's
// policy.
func invokeRM(d *db.DB, cfg *Config, cores []*dynCore, inv, totalWays int, st *runState, refresh bool) error {
	c := cores[inv]
	if refresh {
		c.refreshCurve(d, cfg, st.table)
	}

	curves := st.curves
	for i, o := range cores {
		switch {
		case o.active() && o.hasCurve:
			curves[i] = o.curve
		case cfg.DonateIdleWays && o.drained():
			curves[i] = o.donorSelf()
		default:
			curves[i] = o.pinnedSelf()
		}
	}
	if !st.policy.Allocate(curves, totalWays, st.settings) {
		return nil
	}

	// Apply, charging transition overheads. Idle cores only track their
	// way allocation (unchanged while pinned; possibly shrunk when
	// donating).
	for i, o := range cores {
		if !o.active() {
			o.setting.Ways = st.settings[i].Ways
			continue
		}
		if err := o.applySetting(d, cfg, st.settings[i]); err != nil {
			return err
		}
	}

	// RM execution overhead runs on the invoking core when it is busy;
	// a churn invocation on an emptied core has no application to bill.
	if c.active() {
		c.chargeRMOverhead(cfg, len(cores))
	}
	return nil
}
