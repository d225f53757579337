package sim

import (
	"reflect"
	"testing"
	"time"

	"qosrm/internal/config"
	"qosrm/internal/rm"
)

// Tests for the capabilities the unified engine adds beyond the seed
// loops: named allocation policies, drained-core way donation, and
// queue priorities with preemption.

func TestUnknownPolicyRejected(t *testing.T) {
	d := sharedDB(t)
	if _, err := Run(d, apps(t, "mcf"), Config{RM: rm.RM3, Policy: "skynet"}); err == nil {
		t.Fatal("unknown policy must fail the run")
	}
	if _, err := RunDynamicWS(d, StaticWorkload(apps(t, "mcf")), Config{RM: rm.RM3, Policy: "skynet"}, nil); err == nil {
		t.Fatal("unknown policy must fail the dynamic run")
	}
}

// TestEveryPolicyRunsConserved: all registered policies drive a full
// co-simulation, conserve the LLC associativity at every event, and
// stay deterministic.
func TestEveryPolicyRunsConserved(t *testing.T) {
	d := sharedDB(t)
	w := apps(t, "mcf", "xalancbmk")
	for _, name := range rm.PolicyNames() {
		bad := 0
		cfg := Config{RM: rm.RM3, Policy: name, Trace: func(e Event) {
			sum := 0
			for _, ways := range e.Allocations {
				sum += ways
			}
			if sum != config.TotalWays(2) {
				bad++
			}
		}}
		r, err := Run(d, w, cfg)
		if err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
		if bad > 0 {
			t.Errorf("policy %s: %d events with non-conserved ways", name, bad)
		}
		if r.RMCalled == 0 || r.EnergyJ <= 0 {
			t.Errorf("policy %s: degenerate run %+v", name, r)
		}
		cfg.Trace = nil
		again, err := Run(d, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Errorf("policy %s: run not deterministic", name)
		}
	}
}

// donationWorkload: core 0 drains quickly, core 1 keeps a
// cache-sensitive application running long after.
func donationWorkload(t *testing.T) Dynamic {
	t.Helper()
	const intervalWork = 100_000_000 * 2048
	return Dynamic{Queues: []Queue{
		{Jobs: []Job{{App: apps(t, "povray")[0], Work: 2 * intervalWork}}},
		{Jobs: []Job{{App: apps(t, "xalancbmk")[0], Work: 12 * intervalWork}}},
	}}
}

func TestDonateIdleWaysFreesDrainedCores(t *testing.T) {
	d := sharedDB(t)
	base := Config{RM: rm.RM3, Perfect: true}

	maxWays := func(cfg Config) (int, *DynamicResult) {
		most := 0
		cfg.Trace = func(e Event) {
			if e.Core == 1 && e.Allocations[1] > most {
				most = e.Allocations[1]
			}
			sum := 0
			for _, w := range e.Allocations {
				sum += w
			}
			if sum != config.TotalWays(2) {
				t.Errorf("ways not conserved: %v", e.Allocations)
			}
		}
		r, err := RunDynamicWS(d, donationWorkload(t), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return most, r
	}

	pinnedCfg := base
	donated := base
	donated.DonateIdleWays = true
	pinnedMax, pinnedRes := maxWays(pinnedCfg)
	donatedMax, donatedRes := maxWays(donated)

	// With donation, the drained core's ways become available: the
	// surviving cache-sensitive core must end up with at least as many
	// ways as under the pinned rule, and strictly exceed the pinned
	// engine's hard ceiling (total minus the drained core's held
	// minimum cannot be beaten while the drained core pins ≥ MinWays at
	// its final setting).
	if donatedMax < pinnedMax {
		t.Errorf("donation shrank the survivor's ways: %d vs pinned %d", donatedMax, pinnedMax)
	}
	if donatedMax <= pinnedMax && donatedMax < config.TotalWays(2)-config.MinWays {
		t.Errorf("donation never freed ways: max %d (pinned %d)", donatedMax, pinnedMax)
	}
	// The drain triggers an extra re-optimisation.
	if donatedRes.RMCalled <= pinnedRes.RMCalled {
		t.Errorf("drain re-optimisation missing: %d calls vs pinned %d",
			donatedRes.RMCalled, pinnedRes.RMCalled)
	}
	// More cache for the survivor must not cost application energy under
	// the oracle (uncore scales with wall clock and may differ).
	var donatedApp, pinnedApp float64
	for _, j := range donatedRes.Jobs {
		donatedApp += j.EnergyJ
	}
	for _, j := range pinnedRes.Jobs {
		pinnedApp += j.EnergyJ
	}
	if donatedApp > pinnedApp*1.001 {
		t.Errorf("donation raised app energy: %.6f vs %.6f", donatedApp, pinnedApp)
	}
}

func TestDonateIdleWaysDefaultOffIsBitIdentical(t *testing.T) {
	d := sharedDB(t)
	cfg := Config{RM: rm.RM3}
	want, err := runDynamicReference(d, donationWorkload(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDynamicWS(d, donationWorkload(t), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("donation default (off) drifted from the seed engine")
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	d := sharedDB(t)
	const work = 2 * 100_000_000 * 2048
	dyn := Dynamic{Queues: []Queue{{Jobs: []Job{
		{App: apps(t, "povray")[0], Work: work},           // slot 0, default priority
		{App: apps(t, "mcf")[0], Work: work, Priority: 5}, // slot 1, urgent
	}}}}
	r, err := RunDynamicWS(d, dyn, Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(r.Jobs))
	}
	if r.Jobs[0].Slot != 1 || r.Jobs[0].Bench != "mcf" {
		t.Errorf("high-priority job did not run first: %+v", r.Jobs[0])
	}
	if r.Jobs[1].StartNs != r.Jobs[0].FinishNs {
		t.Errorf("low-priority job start %v, want the high-priority finish %v",
			r.Jobs[1].StartNs, r.Jobs[0].FinishNs)
	}
}

func TestPreemptionSuspendsAndResumes(t *testing.T) {
	d := sharedDB(t)
	const intervalWork = 100_000_000 * 2048
	const arrive = 1e8
	dyn := Dynamic{Queues: []Queue{
		{Jobs: []Job{
			{App: apps(t, "povray")[0], Work: 20 * intervalWork},                             // long background job
			{App: apps(t, "mcf")[0], Work: 2 * intervalWork, ArrivalNs: arrive, Priority: 3}, // urgent mid-run arrival
		}},
		{Jobs: []Job{{App: apps(t, "xalancbmk")[0], Work: 10 * intervalWork}}},
	}}
	bad := 0
	cfg := Config{RM: rm.RM3, Trace: func(e Event) {
		sum := 0
		for _, w := range e.Allocations {
			sum += w
		}
		if sum != config.TotalWays(2) {
			bad++
		}
	}}
	r, err := RunDynamicWS(d, dyn, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d events with non-conserved ways", bad)
	}
	if len(r.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(r.Jobs))
	}
	var urgent, background *JobResult
	for i := range r.Jobs {
		switch {
		case r.Jobs[i].Core == 0 && r.Jobs[i].Slot == 1:
			urgent = &r.Jobs[i]
		case r.Jobs[i].Core == 0 && r.Jobs[i].Slot == 0:
			background = &r.Jobs[i]
		}
	}
	if urgent == nil || background == nil {
		t.Fatalf("missing job results: %+v", r.Jobs)
	}
	if urgent.StartNs != arrive {
		t.Errorf("urgent job started %v, want its arrival %v", urgent.StartNs, arrive)
	}
	if urgent.Preemptions != 0 {
		t.Errorf("urgent job preempted %d times, want 0", urgent.Preemptions)
	}
	if background.Preemptions != 1 {
		t.Errorf("background job preempted %d times, want 1", background.Preemptions)
	}
	if background.StartNs != 0 {
		t.Errorf("background start %v, want 0 (first start, not the resume)", background.StartNs)
	}
	if background.FinishNs <= urgent.FinishNs {
		t.Errorf("preempted job finished %v, before the preemptor's %v",
			background.FinishNs, urgent.FinishNs)
	}
	if background.Departed || urgent.Departed {
		t.Error("preemption must not be recorded as departure")
	}
	// The preempted job still completed all of its work: its executed
	// intervals plus the cut partial interval cover the target.
	if background.Intervals == 0 {
		t.Error("preempted job ran no complete intervals")
	}

	// Determinism.
	cfg.Trace = nil
	again, err := RunDynamicWS(d, dyn, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Jobs, again.Jobs) || r.EnergyJ != again.EnergyJ {
		t.Error("preempting run not deterministic")
	}
}

// TestFractionalWorkResidueTerminates is the regression test for the
// event loop's Zeno trap: a fractional Work target can leave a
// sub-instruction residue too small for the simulation clock to advance
// at large simulated times (now + rem·TPI rounds back to now), which
// spun the seed loops forever on Poisson-generated schedules. The
// clock-resolution finish guard must end such jobs instead.
func TestFractionalWorkResidueTerminates(t *testing.T) {
	d := sharedDB(t)
	// Two whole intervals plus a 3e-6-instruction residue, starting at
	// 3e10 ns where the float64 clock's ulp (≈3.8e-6 ns) swallows the
	// residue's execution time.
	const work = (2*100_000_000 + 3e-6) * 2048
	dyn := Dynamic{Queues: []Queue{{Jobs: []Job{
		{App: apps(t, "povray")[0], Work: work, ArrivalNs: 3e10},
	}}}}

	for _, cfg := range []Config{{RM: rm.Idle}, {RM: rm.RM3}} {
		done := make(chan *DynamicResult, 1)
		fail := make(chan error, 1)
		go func() {
			r, err := RunDynamicWS(d, dyn, cfg, nil)
			if err != nil {
				fail <- err
				return
			}
			done <- r
		}()
		select {
		case err := <-fail:
			t.Fatal(err)
		case r := <-done:
			if len(r.Jobs) != 1 || r.Jobs[0].Departed {
				t.Fatalf("RM %v: unexpected outcome %+v", cfg.RM, r.Jobs)
			}
			if r.Jobs[0].Intervals == 0 {
				t.Errorf("RM %v: job retired no intervals", cfg.RM)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("RM %v: engine did not terminate (Zeno trap)", cfg.RM)
		}
	}

	// The frozen reference shares the guard, keeping the equivalence
	// property well-defined on every input.
	got, err := RunDynamicWS(d, dyn, Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runDynamicReference(d, dyn, Config{RM: rm.RM3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("engine and reference disagree on the residue workload")
	}
}

// TestZeroPriorityQueueUsesLegacyOrder pins the gate: a queue whose
// priorities are all zero must execute in strict queue order even when
// arrivals are out of order — exactly the seed engine's contract.
func TestZeroPriorityQueueUsesLegacyOrder(t *testing.T) {
	d := sharedDB(t)
	const work = 2 * 100_000_000 * 2048
	dyn := Dynamic{Queues: []Queue{{Jobs: []Job{
		{App: apps(t, "povray")[0], Work: work, ArrivalNs: 5e8},
		{App: apps(t, "mcf")[0], Work: work, ArrivalNs: 0},
	}}}}
	want, err := runDynamicReference(d, dyn, Config{RM: rm.RM3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDynamicWS(d, dyn, Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("zero-priority queue drifted from strict order")
	}
	if got.Jobs[0].Slot != 0 {
		t.Errorf("strict order violated: first completion is slot %d", got.Jobs[0].Slot)
	}
}
