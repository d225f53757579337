// Package scenario is the declarative layer over the dynamic
// co-simulator: a JSON-loadable scenario specification — per-core
// application queues with arrivals, departures and per-app QoS
// relaxations, plus mid-run QoS-target step changes — and a batch runner
// that sweeps many scenarios in parallel over one shared database.
//
// The spec generalises the paper's evaluation beyond its static
// one-application-per-core mixes: any core count, any queue depth, any
// churn pattern expressible as arrival/departure times. A Spec compiles
// to a sim.Dynamic; Run executes it together with an idle-manager twin
// so every report carries the energy saving the paper's figures are
// built from.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/sim"
	"qosrm/internal/workload"
)

// JobSpec is one queued application of a core's schedule.
type JobSpec struct {
	// App names a suite application (e.g. "mcf").
	App string `json:"app"`
	// Alpha is the per-app QoS relaxation; 0 inherits the core's base
	// relaxation (the spec's Alpha, or the latest QoS step's value).
	Alpha float64 `json:"alpha,omitempty"`
	// ArrivalNs is the earliest start time; the job also waits for its
	// queue predecessors.
	ArrivalNs float64 `json:"arrival_ns,omitempty"`
	// Work is the instruction budget at paper scale; 0 means the
	// default target (the suite's longest application).
	Work float64 `json:"work,omitempty"`
	// DepartNs forces the job off the core at this time; 0 disables.
	DepartNs float64 `json:"depart_ns,omitempty"`
	// Priority orders jobs within the queue (higher first; an arriving
	// strictly-higher-priority job preempts the running one). All-zero
	// priorities keep strict queue order.
	Priority int `json:"priority,omitempty"`
}

// CoreSpec is one core's job queue.
type CoreSpec struct {
	Jobs []JobSpec `json:"jobs"`
}

// StepSpec is one mid-run QoS-target change.
type StepSpec struct {
	AtNs float64 `json:"at_ns"`
	// Core targets one core; omitted (null) applies to every core.
	Core  *int    `json:"core,omitempty"`
	Alpha float64 `json:"alpha"`
}

// Spec is one complete scenario: the workload shape plus the manager
// configuration to simulate it under.
type Spec struct {
	Name string `json:"name"`
	// RM selects the manager: "Idle", "RM1", "RM2" or "RM3" (default).
	RM string `json:"rm,omitempty"`
	// Model selects the online performance model: "Model1".."Model3"
	// (default "Model3"); ignored when Perfect is set.
	Model   string `json:"model,omitempty"`
	Perfect bool   `json:"perfect,omitempty"`
	// Policy selects the global allocation policy: "model3" (default,
	// the paper's optimal reduction), "greedy" or "brute".
	Policy string `json:"policy,omitempty"`
	// DonateIdleWays lets drained cores donate their LLC ways back to
	// the optimisation instead of pinning them at the final setting.
	DonateIdleWays bool `json:"donate_idle_ways,omitempty"`
	// Alpha is the base QoS relaxation (default 1, as in the paper).
	Alpha float64 `json:"alpha,omitempty"`
	// Scale divides all instruction counts (default 2048; 1 is paper
	// scale). Interval is the RM granularity in instructions.
	Scale            int64 `json:"scale,omitempty"`
	Interval         int64 `json:"interval,omitempty"`
	DisableOverheads bool  `json:"disable_overheads,omitempty"`

	Cores []CoreSpec `json:"cores"`
	Steps []StepSpec `json:"qos_steps,omitempty"`
}

// ParseRM resolves a manager name ("Idle", "RM1".."RM3"; empty defaults
// to RM3).
func ParseRM(s string) (rm.Kind, error) {
	switch s {
	case "":
		return rm.RM3, nil
	case "Idle":
		return rm.Idle, nil
	case "RM1":
		return rm.RM1, nil
	case "RM2":
		return rm.RM2, nil
	case "RM3":
		return rm.RM3, nil
	}
	return 0, fmt.Errorf("scenario: unknown resource manager %q", s)
}

// ParseModel resolves a performance-model name ("Model1".."Model3";
// empty defaults to Model3).
func ParseModel(s string) (perfmodel.Kind, error) {
	switch s {
	case "", "Model3":
		return perfmodel.Model3, nil
	case "Model1":
		return perfmodel.Model1, nil
	case "Model2":
		return perfmodel.Model2, nil
	}
	return 0, fmt.Errorf("scenario: unknown performance model %q", s)
}

// ParsePolicy resolves an allocation-policy name to its canonical form
// (empty defaults to "model3", the paper's optimal reduction; see
// rm.PolicyNames for the registry).
func ParsePolicy(s string) (string, error) {
	if s == "" {
		return rm.PolicyModel3, nil
	}
	if _, err := rm.NewPolicy(s); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// Validate reports the first structural problem with the spec: unknown
// application, manager, model or policy names, empty systems, non-finite
// numeric fields, out-of-range step targets, or QoS steps that would
// silently shadow each other (two steps at the same instant whose core
// targets overlap — the later-listed one would win by engine tie-break,
// which is never what the spec author meant). Database coverage is
// checked by the run itself.
func (s *Spec) Validate() error {
	if _, err := ParseRM(s.RM); err != nil {
		return err
	}
	if _, err := ParseModel(s.Model); err != nil {
		return err
	}
	if _, err := ParsePolicy(s.Policy); err != nil {
		return err
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("scenario %s: no cores", s.Name)
	}
	jobs := 0
	for ci, c := range s.Cores {
		for ji, j := range c.Jobs {
			if _, err := bench.ByName(j.App); err != nil {
				return fmt.Errorf("scenario %s core %d job %d: %w", s.Name, ci, ji, err)
			}
			if !finite(j.Alpha) || !finite(j.ArrivalNs) || !finite(j.Work) || !finite(j.DepartNs) {
				return fmt.Errorf("scenario %s core %d job %d: non-finite parameter", s.Name, ci, ji)
			}
			if j.Alpha < 0 || j.ArrivalNs < 0 || j.Work < 0 || j.DepartNs < 0 {
				return fmt.Errorf("scenario %s core %d job %d: negative parameter", s.Name, ci, ji)
			}
			jobs++
		}
	}
	if jobs == 0 {
		return fmt.Errorf("scenario %s: no jobs", s.Name)
	}
	for i, st := range s.Steps {
		if !finite(st.AtNs) || !finite(st.Alpha) {
			return fmt.Errorf("scenario %s step %d: non-finite value", s.Name, i)
		}
		if st.Alpha <= 0 {
			return fmt.Errorf("scenario %s step %d: alpha %.3f not positive", s.Name, i, st.Alpha)
		}
		if st.AtNs < 0 {
			return fmt.Errorf("scenario %s step %d: negative time", s.Name, i)
		}
		if st.Core != nil && (*st.Core < 0 || *st.Core >= len(s.Cores)) {
			return fmt.Errorf("scenario %s step %d: core %d of %d", s.Name, i, *st.Core, len(s.Cores))
		}
		for k := 0; k < i; k++ {
			prev := s.Steps[k]
			if prev.AtNs == st.AtNs && stepsOverlap(prev.Core, st.Core) {
				return fmt.Errorf("scenario %s: steps %d and %d both fire at %g ns for the same core — one would silently shadow the other",
					s.Name, k, i, st.AtNs)
			}
		}
	}
	if !finite(s.Alpha) {
		return fmt.Errorf("scenario %s: non-finite alpha", s.Name)
	}
	if s.Alpha < 0 || s.Scale < 0 || s.Interval < 0 {
		return fmt.Errorf("scenario %s: negative configuration value", s.Name)
	}
	return nil
}

// finite rejects the NaN/±Inf values encoding/json happily produces
// from "1e999"-style literals.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// stepsOverlap reports whether two step core targets touch a common
// core (nil targets every core).
func stepsOverlap(a, b *int) bool {
	if a == nil || b == nil {
		return true
	}
	return *a == *b
}

// ValidateSpecs validates a batch: every spec individually, plus
// cross-spec rules — duplicate scenario names are rejected because
// sweep reports are keyed by name and a duplicate would silently shadow
// its twin in any downstream aggregation.
func ValidateSpecs(specs []Spec) error {
	seen := make(map[string]int, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return err
		}
		if prev, dup := seen[specs[i].Name]; dup {
			return fmt.Errorf("scenario: specs %d and %d share the name %q", prev, i, specs[i].Name)
		}
		seen[specs[i].Name] = i
	}
	return nil
}

// Compile resolves the spec into the dynamic workload description and
// the simulator configuration that executes it.
func (s *Spec) Compile() (sim.Dynamic, sim.Config, error) {
	if err := s.Validate(); err != nil {
		return sim.Dynamic{}, sim.Config{}, err
	}
	kind, _ := ParseRM(s.RM)
	model, _ := ParseModel(s.Model)
	policy, _ := ParsePolicy(s.Policy)
	cfg := sim.Config{
		RM:               kind,
		Model:            model,
		Perfect:          s.Perfect,
		Alpha:            s.Alpha,
		Scale:            s.Scale,
		Interval:         s.Interval,
		DisableOverheads: s.DisableOverheads,
		Policy:           policy,
		DonateIdleWays:   s.DonateIdleWays,
	}
	dyn := sim.Dynamic{Queues: make([]sim.Queue, len(s.Cores))}
	for ci, c := range s.Cores {
		q := sim.Queue{Jobs: make([]sim.Job, len(c.Jobs))}
		for ji, j := range c.Jobs {
			app, err := bench.ByName(j.App)
			if err != nil {
				return sim.Dynamic{}, sim.Config{}, err
			}
			q.Jobs[ji] = sim.Job{
				App:       app,
				Alpha:     j.Alpha,
				ArrivalNs: j.ArrivalNs,
				Work:      j.Work,
				DepartNs:  j.DepartNs,
				Priority:  j.Priority,
			}
		}
		dyn.Queues[ci] = q
	}
	for _, st := range s.Steps {
		core := -1
		if st.Core != nil {
			core = *st.Core
		}
		dyn.Steps = append(dyn.Steps, sim.QoSStep{AtNs: st.AtNs, Core: core, Alpha: st.Alpha})
	}
	return dyn, cfg, nil
}

// Benchmarks returns the distinct applications the spec schedules, in
// first-use order — the minimal database a run needs.
func (s *Spec) Benchmarks() []*bench.Benchmark {
	return Benchmarks([]Spec{*s})
}

// Benchmarks returns the distinct applications a batch of specs
// schedules, in first-use order.
func Benchmarks(specs []Spec) []*bench.Benchmark {
	seen := map[string]bool{}
	var out []*bench.Benchmark
	for _, s := range specs {
		for _, c := range s.Cores {
			for _, j := range c.Jobs {
				if seen[j.App] {
					continue
				}
				seen[j.App] = true
				if b, err := bench.ByName(j.App); err == nil {
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// Load parses one scenario file: either a single spec object or an
// array of specs.
func Load(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, errors.New("scenario: empty input")
	}
	if trimmed[0] == '[' {
		var specs []Spec
		if err := json.Unmarshal(data, &specs); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		return specs, nil
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return []Spec{s}, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Report is the outcome of one scenario run: the managed result, the
// idle-manager twin it is normalised against, and the headline metrics
// derived from the pair.
type Report struct {
	Name string `json:"name"`
	RM   string `json:"rm"`
	// Policy is the allocation policy the managed run decided with.
	Policy string `json:"policy"`
	// Saving is the fractional energy saving of the managed run over
	// the idle (baseline-keeping) manager on the identical schedule.
	Saving      float64 `json:"saving"`
	EnergyJ     float64 `json:"energy_j"`
	IdleEnergyJ float64 `json:"idle_energy_j"`
	TimeNs      float64 `json:"time_ns"`
	RMCalled    int64   `json:"rm_called"`
	// ViolationRate measures against the strict baseline time;
	// BudgetViolationRate against each job's own α-relaxed target.
	ViolationRate       float64 `json:"violation_rate"`
	BudgetViolationRate float64 `json:"budget_violation_rate"`
	// Jobs is the managed run's per-job outcome.
	Jobs []sim.JobResult `json:"jobs"`
}

// Run executes the spec against the database: the configured manager
// plus the idle twin that anchors the energy saving.
func Run(d *db.DB, s *Spec) (*Report, error) {
	return RunWS(d, s, nil)
}

// RunWS is Run reusing a dynamic-engine workspace across calls (nil for
// a one-shot run): the idle twin and the managed run share its buffers,
// and a sweep worker passes the same workspace for every spec so
// per-core state and the reduction arena survive across the batch.
// Curves are shared by every run on d, through d's curve table.
func RunWS(d *db.DB, s *Spec, ws *sim.RunWorkspace) (*Report, error) {
	return RunCtx(nil, d, s, ws)
}

// RunCtx is RunWS honouring ctx: both the idle twin and the managed run
// poll for cancellation, so a serving layer can abandon a request's
// in-flight simulations when the client goes away. A nil ctx disables
// the checks.
func RunCtx(ctx context.Context, d *db.DB, s *Spec, ws *sim.RunWorkspace) (*Report, error) {
	return RunTraced(ctx, d, s, ws, nil)
}

// RunTraced is RunCtx with an interval-event trace attached to the
// *reported* run — the managed simulation, or the idle run itself when
// the spec's RM is Idle (that run is then the report). The idle twin of
// a managed spec is never traced: its events are bookkeeping, not the
// allocation decisions a subscriber asked to watch. trace receives each
// sim.Event synchronously on the simulating goroutine; Event.Allocations
// is only valid during the call (see sim.Event). A nil trace is exactly
// RunCtx.
func RunTraced(ctx context.Context, d *db.DB, s *Spec, ws *sim.RunWorkspace, trace func(sim.Event)) (*Report, error) {
	dyn, cfg, err := s.Compile()
	if err != nil {
		return nil, err
	}
	kind, _ := ParseRM(s.RM)
	idleCfg := cfg
	idleCfg.RM = rm.Idle
	idleCfg.Trace = nil
	if kind == rm.Idle {
		idleCfg.Trace = trace
	}
	idle, err := sim.RunDynamicCtx(ctx, d, dyn, idleCfg, ws)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	// An idle-manager spec IS its own twin; don't simulate it twice.
	r := idle
	if kind != rm.Idle {
		cfg.Trace = trace
		r, err = sim.RunDynamicCtx(ctx, d, dyn, cfg, ws)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	policy, _ := ParsePolicy(s.Policy)
	return &Report{
		Name:                s.Name,
		RM:                  kind.String(),
		Policy:              policy,
		Saving:              1 - r.EnergyJ/idle.EnergyJ,
		EnergyJ:             r.EnergyJ,
		IdleEnergyJ:         idle.EnergyJ,
		TimeNs:              r.TimeNs,
		RMCalled:            r.RMCalled,
		ViolationRate:       r.ViolationRate(),
		BudgetViolationRate: r.BudgetViolationRate(),
		Jobs:                r.Jobs,
	}, nil
}

// Sweep runs a batch of scenarios in parallel over the shared database,
// bounded by workers (≤ 0 means one worker per scenario). Reports come
// back in spec order; failures are collected and joined, and the
// remaining scenarios still run.
func Sweep(d *db.DB, specs []Spec, workers int) ([]*Report, error) {
	return SweepContext(nil, d, specs, workers)
}

// SweepContext is Sweep honouring ctx: workers stop picking up new
// scenarios once ctx is cancelled and in-flight runs abandon at their
// next event-loop check, so the whole batch returns promptly with ctx's
// error recorded for every unfinished spec. A nil ctx disables the
// checks.
func SweepContext(ctx context.Context, d *db.DB, specs []Spec, workers int) ([]*Report, error) {
	if len(specs) == 0 {
		return nil, errors.New("scenario: empty sweep")
	}
	if workers <= 0 || workers > len(specs) {
		workers = len(specs)
	}
	reports := make([]*Report, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	ch := make(chan int, len(specs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One dynamic-engine workspace per worker: its buffers are
			// reused across the worker's share of the batch.
			var ws sim.RunWorkspace
			for i := range ch {
				if ctx != nil && ctx.Err() != nil {
					errs[i] = fmt.Errorf("scenario %s: %w", specs[i].Name, ctx.Err())
					continue
				}
				reports[i], errs[i] = RunCtx(ctx, d, &specs[i], &ws)
			}
		}()
	}
	for i := range specs {
		ch <- i
	}
	close(ch)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return reports, err
	}
	return reports, nil
}

// PolicySweep expands specs along the allocation-policy axis: every
// spec is cloned once per named policy (empty policies defaults to the
// full registry), names suffixed "+<policy>" so reports stay uniquely
// keyed — the input for a policy shoot-out over identical workloads.
func PolicySweep(specs []Spec, policies []string) ([]Spec, error) {
	if len(policies) == 0 {
		policies = rm.PolicyNames()
	}
	for _, p := range policies {
		if _, err := ParsePolicy(p); err != nil {
			return nil, err
		}
	}
	out := make([]Spec, 0, len(specs)*len(policies))
	for _, s := range specs {
		for _, p := range policies {
			clone := s
			canon, _ := ParsePolicy(p)
			clone.Policy = canon
			clone.Name = s.Name + "+" + canon
			out = append(out, clone)
		}
	}
	return out, nil
}

// FromChurn converts a generated churn schedule (workload.GenerateChurn)
// into a runnable spec: arrival fractions scale to horizonNs and work
// fractions to the default instruction target. The remaining Spec fields
// keep their defaults (RM3, Model3, paper alpha) and can be adjusted on
// the returned value.
func FromChurn(name string, churn [][]workload.ChurnEntry, horizonNs float64) Spec {
	s := Spec{Name: name, Cores: make([]CoreSpec, len(churn))}
	for ci, q := range churn {
		jobs := make([]JobSpec, len(q))
		for ji, e := range q {
			jobs[ji] = JobSpec{
				App:       e.App.Name,
				Alpha:     e.Alpha,
				ArrivalNs: e.ArrivalFrac * horizonNs,
				Work:      e.WorkFrac * float64(config.LongestAppInstrPaper),
			}
		}
		s.Cores[ci] = CoreSpec{Jobs: jobs}
	}
	// Entries with the paper's strict alpha stay implicit so QoS steps
	// can still retarget them.
	for ci := range s.Cores {
		for ji := range s.Cores[ci].Jobs {
			if s.Cores[ci].Jobs[ji].Alpha == 1.0 {
				s.Cores[ci].Jobs[ji].Alpha = 0
			}
		}
	}
	sortJobsByArrival(&s)
	return s
}

// sortJobsByArrival keeps each queue in arrival order, which is how the
// engine consumes it.
func sortJobsByArrival(s *Spec) {
	for ci := range s.Cores {
		jobs := s.Cores[ci].Jobs
		sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].ArrivalNs < jobs[j].ArrivalNs })
	}
}
