// Package sim is the multi-core RM co-simulator of Section IV-A
// (Figure 5), built around one event-driven engine (engine.go): it
// replays per-phase detailed-simulation results from the database as
// each application advances through its phase trace, invokes the
// resource manager at every per-core interval boundary, applies the
// chosen settings (with DVFS-switch, core-resize and RM instruction
// overheads), and accounts core, memory and uncore energy exactly as the
// paper's evaluation does (Section IV-D).
//
// The engine drives per-core job queues — jobs arrive, execute a bounded
// amount of work, finish or depart early, and the next queued job takes
// over the core — with per-application QoS relaxation, mid-run QoS-target
// steps, optional queue priorities with preemption, and optional
// donation of drained cores' LLC ways. The paper's static evaluation
// (one application pinned per core, Run) is the degenerate schedule of
// one zero-arrival run-to-target job per core; StaticWorkload builds it
// and Run routes through the same engine.
//
// The allocation decision itself — per-core energy curves in, per-core
// settings out — is delegated to a pluggable rm.Policy selected by
// Config.Policy, so optimizer variants (the paper's optimal reduction,
// the greedy heuristic, brute-force enumeration, future game-theoretic
// solvers) are interchangeable without touching the event loop.
package sim

import (
	"context"
	"fmt"
	"math"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// Config selects the manager and simulation scale for one run.
type Config struct {
	// RM is the manager to simulate; rm.Idle keeps the baseline setting
	// and is the reference for energy savings.
	RM rm.Kind
	// Model is the performance/energy model the manager predicts with;
	// ignored when Perfect is set.
	Model perfmodel.Kind
	// Perfect replaces the online models with an oracle that knows the
	// next interval's phase and its true time/energy at every setting
	// (the "perfect model" of Figures 2 and 9).
	Perfect bool
	// Interval is the RM invocation granularity in instructions
	// (default: the paper's 100 M).
	Interval int64
	// Scale divides all application instruction counts so full workload
	// sweeps finish quickly (default 2048; 1 reproduces paper scale).
	Scale int64
	// Alpha is the QoS relaxation parameter (default 1, as in the paper).
	Alpha float64
	// DisableOverheads drops RM instruction, DVFS-switch and resize
	// costs — used by the idealised Figure 2 study.
	DisableOverheads bool
	// Policy names the global allocation policy the manager decides
	// with: "model3" (the paper's optimal pairwise curve reduction, the
	// default), "greedy" (marginal-utility heuristic) or "brute"
	// (exhaustive enumeration; exponential — small core counts only).
	// See rm.PolicyNames.
	Policy string
	// DonateIdleWays lets a drained core — its queue exhausted, the
	// unified engine's generalisation of the static engine's finished
	// core — donate its LLC ways back to the global optimisation instead
	// of keeping them pinned at its final setting, and triggers an
	// immediate re-optimisation when a queue drains. Off by default,
	// preserving the paper's finished-core rule bit for bit.
	DonateIdleWays bool
	// Trace, when non-nil, receives one Event per interval boundary —
	// the "global events" of Figure 5.
	Trace func(Event)
}

// Event describes one interval boundary of the co-simulation.
type Event struct {
	TimeNs   float64
	Core     int
	Bench    string
	Interval int64 // interval index within the current application run
	Phase    int   // phase of the completed interval
	Setting  config.Setting
	// Allocations is the same-instant snapshot of every core's LLC way
	// allocation; it always sums to the LLC associativity. The slice is
	// only valid for the duration of the Trace callback — the engine
	// reuses its backing array across intervals — so a callback that
	// retains the Event must copy it.
	Allocations []int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = config.IntervalInstructions
	}
	if c.Scale <= 0 {
		c.Scale = 2048
	}
	if c.Alpha <= 0 {
		c.Alpha = config.QoSAlpha
	}
	if c.Model == 0 {
		c.Model = perfmodel.Model3
	}
}

// policyName resolves the effective allocation policy name.
func (c *Config) policyName() string {
	if c.Policy != "" {
		return c.Policy
	}
	return rm.PolicyModel3
}

// AppResult is the per-application outcome of a run.
type AppResult struct {
	Bench    string
	EnergyJ  float64 // core + DRAM energy until the instruction target
	FinishNs float64 // when the target was reached
	// Violations / Intervals track per-interval QoS outcomes: an
	// interval violates when its actual time exceeds the baseline
	// setting's time for the same work.
	Intervals  int64
	Violations int64
	// ViolationSum accumulates Eq. 6 magnitudes for violating intervals.
	ViolationSum float64
	MaxViolation float64
	// BudgetViolations counts intervals exceeding the application's own
	// α-relaxed target (α × baseline time, Eq. 3) — the per-app QoS
	// contract. With α = 1 it equals Violations; a relaxed application
	// exceeds the strict baseline by design without breaking its budget.
	BudgetViolations int64
}

// Result is the outcome of one co-simulation.
type Result struct {
	Apps     []AppResult
	UncoreJ  float64
	TimeNs   float64 // end of simulation: all apps reached the target
	EnergyJ  float64 // total: Σ apps + uncore
	RMCalled int64
}

// ViolationRate returns the fraction of intervals that violated QoS.
func (r *Result) ViolationRate() float64 {
	var v, n int64
	for _, a := range r.Apps {
		v += a.Violations
		n += a.Intervals
	}
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// BudgetViolationRate returns the fraction of intervals that exceeded
// their application's α-relaxed target.
func (r *Result) BudgetViolationRate() float64 {
	var v, n int64
	for _, a := range r.Apps {
		v += a.BudgetViolations
		n += a.Intervals
	}
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// core is the engine's per-core interval state.
type core struct {
	app     *bench.Benchmark
	setting config.Setting
	stats   *db.Stats // at (phase, setting)
	// alpha is the QoS relaxation the core's RM invocations run under.
	// Static runs copy Config.Alpha here once; dynamic runs vary it per
	// application and through mid-run QoS steps.
	alpha float64

	target   float64 // instructions to execute in total (scaled)
	executed float64 // toward target
	runExec  float64 // within the current application run (for restart)
	runLen   float64 // scaled application length

	intervalIdx  int64 // within the current run
	phase        int
	intervalDone float64 // instructions into the current interval
	intervalT0   float64 // wall-clock start of the current interval
	extraNs      float64 // overhead time inside the current interval

	stallNs float64 // pending non-execution time (RM/DVFS overheads)

	curve    *rm.Curve
	hasCurve bool

	res AppResult
}

// StaticWorkload wraps the paper's static evaluation shape — one
// application pinned per core, running to the default instruction
// target — as the degenerate dynamic schedule the unified engine
// executes: one zero-arrival, run-to-completion job per core.
func StaticWorkload(apps []*bench.Benchmark) Dynamic {
	dyn := Dynamic{Queues: make([]Queue, len(apps))}
	for i, a := range apps {
		dyn.Queues[i] = Queue{Jobs: []Job{{App: a}}}
	}
	return dyn
}

// Run co-simulates the workload apps (one application per core) under
// cfg, reading all per-interval behaviour from d.
func Run(d *db.DB, apps []*bench.Benchmark, cfg Config) (*Result, error) {
	return RunCtx(nil, d, apps, cfg, nil)
}

// RunCtx is Run honouring ctx and reusing ws. The event loop polls for
// cancellation between interval boundaries, so servers can abandon
// in-flight co-simulations promptly. A nil ctx disables the checks; a
// cancelled run returns ctx's error and no result. ws may be nil for a
// one-shot run; results do not depend on it (see RunDynamicWS).
//
// The static workload is executed by the unified engine as one
// run-to-target job per core; the result is bit-identical to the seed
// static co-simulator's (pinned by the cross-seed property tests against
// runStaticReference).
func RunCtx(ctx context.Context, d *db.DB, apps []*bench.Benchmark, cfg Config, ws *RunWorkspace) (*Result, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	dr, err := runEngine(ctx, d, StaticWorkload(apps), cfg, ws)
	if err != nil {
		return nil, err
	}
	res := &Result{
		UncoreJ:  dr.UncoreJ,
		TimeNs:   dr.TimeNs,
		EnergyJ:  dr.EnergyJ,
		RMCalled: dr.RMCalled,
		Apps:     make([]AppResult, len(apps)),
	}
	// Exactly one run-to-completion job per core: fold the per-job
	// outcomes back into the static per-core result shape.
	for i := range dr.Jobs {
		res.Apps[dr.Jobs[i].Core] = dr.Jobs[i].AppResult
	}
	return res, nil
}

// advance executes ni instructions at the current setting/phase.
func (c *core) advance(ni float64) {
	if ni <= 0 {
		return
	}
	c.res.EnergyJ += c.stats.ActualEnergyJ(c.setting, ni)
	c.executed += ni
	c.runExec += ni
	c.intervalDone += ni
}

// finishInterval records the QoS outcome of the interval that just
// completed and advances the application's phase trace. A database
// lookup failure here means the co-simulation is reading settings or
// phases outside the built grid — a bug, not a recoverable state — so
// it is propagated instead of silently skipping QoS accounting.
func (c *core) finishInterval(d *db.DB, cfg Config, now float64) error {
	// QoS bookkeeping: actual wall time vs the baseline setting's time
	// for the same instructions and phase.
	base, err := d.Stats(c.app.Name, c.phase, config.Baseline())
	if err != nil {
		return fmt.Errorf("sim: baseline stats for %s phase %d: %w", c.app.Name, c.phase, err)
	}
	if c.intervalDone > 0 {
		actual := now - c.intervalT0 - c.extraNs
		ref := base.TPI() * c.intervalDone
		c.res.Intervals++
		// Count a violation only beyond a 0.1% tolerance; sub-permille
		// slowdowns are within replay/interpolation noise.
		if actual > ref*1.001 {
			c.res.Violations++
			v := (actual - ref) / ref
			c.res.ViolationSum += v
			if v > c.res.MaxViolation {
				c.res.MaxViolation = v
			}
		}
		if actual > ref*c.alpha*1.001 {
			c.res.BudgetViolations++
		}
	}

	// Next interval; restart the application when it completes.
	c.intervalIdx++
	if c.runExec >= c.runLen-1e-6 {
		c.runExec = 0
		c.intervalIdx = 0
	}
	c.phase = c.app.PhaseAt(c.intervalIdx)
	return nil
}

// startInterval resets interval-local accounting. As in finishInterval,
// an off-grid lookup indicates a bug and is propagated rather than
// leaving the core silently replaying the previous phase's record.
func (c *core) startInterval(d *db.DB, now float64) error {
	c.intervalDone = 0
	// Overheads charged at this boundary (RM execution, DVFS switch) are
	// still pending as stall time; exclude them from the next interval's
	// QoS measurement.
	c.extraNs = c.stallNs
	c.intervalT0 = now
	s, err := d.Stats(c.app.Name, c.phase, c.setting)
	if err != nil {
		return fmt.Errorf("sim: stats for %s phase %d at %v: %w", c.app.Name, c.phase, c.setting, err)
	}
	c.stats = s
	return nil
}

// refreshCurve rebuilds the invoking core's energy curve from the
// interval that just finished (its phase index was advanced already; the
// completed interval's stats are still in c.stats), going through the
// database's curve table.
func (c *core) refreshCurve(d *db.DB, cfg *Config, table *curveTable) {
	// The online models see only the completed interval's counters:
	// c.stats still holds the record the interval ran under, and —
	// records being shared grid entries — its pointer identifies the
	// (bench, phase, setting) the predictor is built from. The oracle
	// knows the upcoming interval's phase (c.phase was already advanced
	// by finishInterval) and its true behaviour.
	k := curveKey{rec: c.stats, alpha: c.alpha, rm: cfg.RM, model: cfg.Model}
	if cfg.Perfect {
		k = curveKey{bench: c.app.Name, phase: c.phase, alpha: c.alpha, rm: cfg.RM}
	}
	if c.curve = table.load(k); c.curve == nil {
		var p rm.Predictor
		if cfg.Perfect {
			p = &oracle{d: d, app: c.app.Name, phase: c.phase}
		} else {
			p = &rm.ModelPredictor{Stats: perfmodel.FromDB(c.stats, c.setting), Model: cfg.Model}
		}
		c.curve = table.store(k, rm.Localize(p, cfg.RM, rm.Options{Alpha: c.alpha}))
	}
	c.hasCurve = true
}

// applySetting switches the core to s, charging DVFS-switch and
// pipeline-drain overheads (Section III-E) and refreshing the stats
// record the core executes under. A no-op when s is the current setting.
func (o *core) applySetting(d *db.DB, cfg *Config, s config.Setting) error {
	if s == o.setting {
		return nil
	}
	if !cfg.DisableOverheads {
		var over float64
		if s.Freq != o.setting.Freq {
			over += config.DVFSSwitchTimeNs
			o.res.EnergyJ += config.DVFSSwitchEnergyJ
		}
		if s.Core != o.setting.Core {
			// Pipeline drain: ~ROB/IPC cycles (Section III-E).
			over += float64(config.Core(o.setting.Core).ROB) * o.stats.TPI() * config.ResizeDrainFactor
		}
		o.stallNs += over
		o.extraNs += over
	}
	o.setting = s
	stats, err := d.Stats(o.app.Name, o.phase, s)
	if err != nil {
		// The optimizer only hands out valid grid settings; failing
		// to read one back is a bug, not a recoverable state.
		return fmt.Errorf("sim: stats for %s phase %d at %v: %w", o.app.Name, o.phase, s, err)
	}
	o.stats = stats
	return nil
}

// chargeRMOverhead bills one RM execution (Section III-E) to the core it
// ran on, as stall time plus the energy of its instructions.
func (c *core) chargeRMOverhead(cfg *Config, n int) {
	if cfg.DisableOverheads {
		return
	}
	kindOverhead := config.RMInstructionOverhead(n)
	if cfg.RM == rm.RM1 || cfg.RM == rm.RM2 {
		kindOverhead = config.PrevRMInstructionOverhead(n)
	}
	t := float64(kindOverhead) * c.stats.TPI()
	c.res.EnergyJ += c.stats.ActualEnergyJ(c.setting, float64(kindOverhead))
	c.stallNs += t
	c.extraNs += t
}

// pinnedCurve is feasible only at the given setting's allocation, used
// for cores that have not yet reported statistics and for cores that
// already finished their work.
func pinnedCurve(s config.Setting) *rm.Curve {
	var cv rm.Curve
	for i := range cv.Energy {
		cv.Energy[i] = math.Inf(1)
	}
	wi := s.Ways - config.MinWays
	cv.Energy[wi] = 0
	cv.Pick[wi] = s
	return &cv
}

// donorCurve accepts every allocation at zero energy: a drained core
// donating its ways is indifferent to how many it keeps, so the
// optimisation hands it the minimum the reduction's tie-breaking settles
// on and frees the rest for running cores. Core size and frequency stay
// at the drained core's final operating point.
func donorCurve(s config.Setting) *rm.Curve {
	var cv rm.Curve
	for i := range cv.Energy {
		cv.Pick[i] = config.Setting{Core: s.Core, Freq: s.Freq, Ways: config.MinWays + i}
	}
	return &cv
}

// oracle is the perfect predictor: it reads the next interval's phase
// and ground-truth statistics straight from the database.
type oracle struct {
	d     *db.DB
	app   string
	phase int
}

// TimePI returns the true next-interval time per instruction at target.
func (o *oracle) TimePI(target config.Setting) float64 {
	s, err := o.d.Stats(o.app, o.phase, target)
	if err != nil {
		return math.Inf(1)
	}
	return s.TPI()
}

// EnergyPI returns the true next-interval energy per instruction.
func (o *oracle) EnergyPI(target config.Setting) float64 {
	s, err := o.d.Stats(o.app, o.phase, target)
	if err != nil {
		return math.Inf(1)
	}
	return s.ActualEnergyJ(target, 1)
}
