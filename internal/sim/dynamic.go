// The dynamic workload description: per-core application queues — jobs
// arrive, execute a bounded amount of work, finish or depart early, and
// the next queued job takes over the core — with per-application QoS
// relaxation, optional queue priorities (a strictly higher-priority
// arrival preempts the running job, which resumes later with its
// progress intact) and mid-run QoS-target step changes. The unified
// event-driven engine executing these descriptions lives in engine.go;
// a static one-job-per-core queue reproduces the paper's static
// evaluation (sim.Run) bit for bit.
package sim

import (
	"context"
	"fmt"

	"qosrm/internal/bench"
	"qosrm/internal/db"
)

// Job is one queued application of a dynamic run.
type Job struct {
	// App is the application to execute; it must be present in the
	// database the run reads from.
	App *bench.Benchmark
	// Alpha is the per-application QoS relaxation. Zero inherits the
	// core's base relaxation (Config.Alpha, or the latest QoS step's
	// value); an explicit value applies to this job only.
	Alpha float64
	// ArrivalNs is the earliest time the job may start. A job also waits
	// for its predecessors in the queue to finish or depart.
	ArrivalNs float64
	// Work is the instruction count to execute, at paper scale (the
	// engine divides by Config.Scale). Zero means the static engine's
	// default target, the suite's longest application.
	Work float64
	// DepartNs forces the job off the core at this time even if its work
	// is unfinished (a user abandoning a request, a migration, a kill).
	// Zero means the job runs to completion.
	DepartNs float64
	// Priority orders jobs within their queue: when the core frees, the
	// highest-priority arrived job runs first (ties keep queue order),
	// and an arriving job with strictly higher priority than the running
	// one preempts it — the preempted job resumes later with its
	// executed work intact. While every priority in a queue is zero the
	// queue executes in strict order, exactly the pre-priority engine.
	// Negative priorities mark background work.
	Priority int
}

// Queue is one core's job queue, executed in order.
type Queue struct {
	Jobs []Job
}

// QoSStep is one mid-run change of a core's QoS relaxation: at AtNs the
// targeted core's alpha becomes Alpha, taking effect at its subsequent
// RM invocations.
type QoSStep struct {
	AtNs  float64
	Core  int // target core; -1 applies to every core
	Alpha float64
}

// Dynamic is the workload description of one dynamic run: a queue per
// core plus an optional QoS step schedule.
type Dynamic struct {
	Queues []Queue
	Steps  []QoSStep
}

// Validate reports the first problem with the description against the
// database the run would read from.
func (dyn *Dynamic) Validate(d *db.DB) error {
	if len(dyn.Queues) == 0 {
		return fmt.Errorf("sim: dynamic run needs at least one core")
	}
	jobs := 0
	for ci, q := range dyn.Queues {
		for ji, j := range q.Jobs {
			if j.App == nil {
				return fmt.Errorf("sim: core %d job %d has no application", ci, ji)
			}
			if d.NumPhases(j.App.Name) == 0 {
				return fmt.Errorf("sim: database has no data for %q (core %d job %d)", j.App.Name, ci, ji)
			}
			if j.Alpha < 0 || j.ArrivalNs < 0 || j.Work < 0 || j.DepartNs < 0 {
				return fmt.Errorf("sim: core %d job %d has a negative parameter", ci, ji)
			}
			jobs++
		}
	}
	if jobs == 0 {
		return fmt.Errorf("sim: dynamic run has no jobs")
	}
	for i, s := range dyn.Steps {
		if s.Alpha <= 0 {
			return fmt.Errorf("sim: QoS step %d alpha %.3f not positive", i, s.Alpha)
		}
		if s.Core < -1 || s.Core >= len(dyn.Queues) {
			return fmt.Errorf("sim: QoS step %d targets core %d of %d", i, s.Core, len(dyn.Queues))
		}
		if s.AtNs < 0 {
			return fmt.Errorf("sim: QoS step %d at negative time", i)
		}
	}
	return nil
}

// JobResult is the outcome of one queued job.
type JobResult struct {
	Core int
	Slot int // index within the core's queue
	AppResult
	// StartNs is when the job began executing (≥ its arrival time).
	StartNs float64
	// Alpha is the QoS relaxation in effect when the job ended.
	Alpha float64
	// Departed marks jobs forced off the core before completing their
	// work; FinishNs is then the departure time.
	Departed bool
	// Preemptions counts how often the job was suspended by a
	// higher-priority arrival before finishing.
	Preemptions int
}

// DynamicResult is the outcome of one dynamic co-simulation.
type DynamicResult struct {
	// Jobs holds one result per executed job, in completion order.
	Jobs     []JobResult
	UncoreJ  float64
	TimeNs   float64
	EnergyJ  float64 // total: Σ jobs + uncore
	RMCalled int64
}

// ViolationRate returns the fraction of intervals that violated QoS
// (measured against the strict baseline), across all jobs.
func (r *DynamicResult) ViolationRate() float64 {
	var v, n int64
	for _, j := range r.Jobs {
		v += j.Violations
		n += j.Intervals
	}
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// BudgetViolationRate returns the fraction of intervals that exceeded
// their job's α-relaxed target — the per-app QoS contract a
// heterogeneous-alpha scenario actually promises.
func (r *DynamicResult) BudgetViolationRate() float64 {
	var v, n int64
	for _, j := range r.Jobs {
		v += j.BudgetViolations
		n += j.Intervals
	}
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// RunDynamicWS co-simulates a dynamic workload under cfg, reading all
// per-interval behaviour from d. Cores with no running job idle at their
// last setting — their LLC ways stay physically allocated and are pinned
// in the global optimisation (unless Config.DonateIdleWays frees a
// drained core's ways), and they draw no core energy (uncore power is
// charged for the whole chip as usual). An arriving job inherits the
// core's current setting until its first interval completes and the RM
// reallocates; a finishing or departing job triggers an immediate global
// re-optimisation when its core's queue continues.
//
// ws is reused across calls and may be nil for a one-shot run. Results
// do not depend on it: the workspace only recycles buffers and memoized
// pinned and donor curves, whose keys pin all of their inputs.
func RunDynamicWS(d *db.DB, dyn Dynamic, cfg Config, ws *RunWorkspace) (*DynamicResult, error) {
	return RunDynamicCtx(nil, d, dyn, cfg, ws)
}

// RunDynamicCtx is RunDynamicWS honouring ctx: the event loop polls for
// cancellation between events, so a server can abandon an in-flight
// co-simulation as soon as its client disconnects or the service shuts
// down. A nil ctx disables the checks. A cancelled run returns ctx's
// error and no result; cancellation never changes the result of a run
// that completes.
func RunDynamicCtx(ctx context.Context, d *db.DB, dyn Dynamic, cfg Config, ws *RunWorkspace) (*DynamicResult, error) {
	return runEngine(ctx, d, dyn, cfg, ws)
}
