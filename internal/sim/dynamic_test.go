package sim

import (
	"math"
	"reflect"
	"testing"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/rm"
)

// staticDynamic wraps a static one-application-per-core workload as a
// dynamic description: one job per core, arriving at time zero, running
// to the default target — exactly what Run simulates.
func staticDynamic(apps []*bench.Benchmark) Dynamic {
	dyn := Dynamic{Queues: make([]Queue, len(apps))}
	for i, a := range apps {
		dyn.Queues[i] = Queue{Jobs: []Job{{App: a}}}
	}
	return dyn
}

func TestDynamicMatchesStaticRun(t *testing.T) {
	// A static scenario run through the dynamic engine must be
	// bit-identical to plain Run — the same pattern as the
	// db.BuildReference / GlobalOptimizeReference equivalence tests.
	d := sharedDB(t)
	cases := []struct {
		name string
		apps []string
		cfg  Config
	}{
		{"idle", []string{"mcf", "povray"}, Config{RM: rm.Idle}},
		{"rm3-model3", []string{"mcf", "povray"}, Config{RM: rm.RM3}},
		{"rm2-model1", []string{"bwaves", "xalancbmk"}, Config{RM: rm.RM2, Model: 1}},
		{"perfect", []string{"libquantum", "omnetpp"}, Config{RM: rm.RM3, Perfect: true}},
		{"greedy", []string{"mcf", "xalancbmk"}, Config{RM: rm.RM3, Policy: rm.PolicyGreedy}},
		{"no-overheads", []string{"mcf", "povray"}, Config{RM: rm.RM3, DisableOverheads: true}},
		{"restarting-app", []string{"omnetpp", "mcf"}, Config{RM: rm.RM1}},
		{"alpha", []string{"mcf", "povray"}, Config{RM: rm.RM3, Alpha: 1.2}},
		{"4-core", []string{"mcf", "povray", "bwaves", "xalancbmk"}, Config{RM: rm.RM3}},
		{"single-core", []string{"mcf"}, Config{RM: rm.RM3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := apps(t, tc.apps...)
			want, err := Run(d, w, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunDynamicWS(d, staticDynamic(w), tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.TimeNs != want.TimeNs {
				t.Errorf("TimeNs %v != %v", got.TimeNs, want.TimeNs)
			}
			if got.EnergyJ != want.EnergyJ {
				t.Errorf("EnergyJ %v != %v", got.EnergyJ, want.EnergyJ)
			}
			if got.UncoreJ != want.UncoreJ {
				t.Errorf("UncoreJ %v != %v", got.UncoreJ, want.UncoreJ)
			}
			if got.RMCalled != want.RMCalled {
				t.Errorf("RMCalled %d != %d", got.RMCalled, want.RMCalled)
			}
			if len(got.Jobs) != len(want.Apps) {
				t.Fatalf("%d jobs for %d apps", len(got.Jobs), len(want.Apps))
			}
			for _, j := range got.Jobs {
				if j.Slot != 0 || j.StartNs != 0 || j.Departed {
					t.Errorf("static job looks dynamic: %+v", j)
				}
				if !reflect.DeepEqual(j.AppResult, want.Apps[j.Core]) {
					t.Errorf("core %d: job result %+v != app result %+v",
						j.Core, j.AppResult, want.Apps[j.Core])
				}
			}
		})
	}
}

// churnScenario is the acceptance scenario: a 4-core system with three
// churn events (one early departure, two queued follow-up arrivals), two
// distinct per-app QoS relaxations and one mid-run QoS step.
func churnScenario(t *testing.T) Dynamic {
	t.Helper()
	a := func(name string) *bench.Benchmark { return apps(t, name)[0] }
	const fiveIntervals = 5 * 100_000_000 * 2048 // paper-scale work ≈ 5 intervals at Scale 2048
	return Dynamic{
		Queues: []Queue{
			// Core 0: a memory-bound app departs early; a compute-bound
			// app (already waiting) takes over with a relaxed target.
			{Jobs: []Job{
				{App: a("mcf"), Work: fiveIntervals, DepartNs: 2.5e8},
				{App: a("povray"), Work: fiveIntervals, Alpha: 1.3},
			}},
			// Core 1: two streamers back to back; the second arrives
			// only after a fixed delay.
			{Jobs: []Job{
				{App: a("bwaves"), Work: fiveIntervals},
				{App: a("libquantum"), Work: fiveIntervals, ArrivalNs: 6e8},
			}},
			// Core 2: one long cache-sensitive app with a strict target.
			{Jobs: []Job{{App: a("xalancbmk"), Work: 2 * fiveIntervals, Alpha: 1.05}}},
			// Core 3: a single compute-bound app.
			{Jobs: []Job{{App: a("omnetpp"), Work: fiveIntervals}}},
		},
		// Mid-run, the operator relaxes every core's QoS target by 15%.
		Steps: []QoSStep{{AtNs: 4e8, Core: -1, Alpha: 1.15}},
	}
}

func TestDynamicChurnScenario(t *testing.T) {
	d := sharedDB(t)
	dyn := churnScenario(t)
	cfg := Config{RM: rm.RM3}

	sumWays := func(alloc []int) int {
		s := 0
		for _, w := range alloc {
			s += w
		}
		return s
	}
	bad := 0
	cfg.Trace = func(e Event) {
		if sumWays(e.Allocations) != config.TotalWays(4) {
			bad++
		}
	}
	r, err := RunDynamicWS(d, dyn, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d events with non-conserved ways", bad)
	}
	if len(r.Jobs) != 6 {
		t.Fatalf("%d job results, want 6", len(r.Jobs))
	}

	byCoreSlot := map[[2]int]JobResult{}
	for _, j := range r.Jobs {
		byCoreSlot[[2]int{j.Core, j.Slot}] = j
	}
	mcf := byCoreSlot[[2]int{0, 0}]
	if !mcf.Departed || mcf.FinishNs != 2.5e8 {
		t.Errorf("mcf must depart at 2.5e8, got %+v", mcf)
	}
	povray := byCoreSlot[[2]int{0, 1}]
	if povray.Departed || povray.StartNs != mcf.FinishNs {
		t.Errorf("povray must take over at mcf's departure, got start %v", povray.StartNs)
	}
	if povray.Alpha != 1.3 {
		t.Errorf("povray alpha %v, want its explicit 1.3", povray.Alpha)
	}
	libq := byCoreSlot[[2]int{1, 1}]
	if libq.StartNs < 6e8 {
		t.Errorf("libquantum started %v, before its arrival", libq.StartNs)
	}
	// The global step retargeted every job without an explicit alpha.
	if j := byCoreSlot[[2]int{3, 0}]; j.Alpha != 1.15 {
		t.Errorf("omnetpp ended under alpha %v, want the stepped 1.15", j.Alpha)
	}
	if j := byCoreSlot[[2]int{2, 0}]; j.Alpha != 1.05 {
		t.Errorf("xalancbmk ended under alpha %v, want its explicit 1.05", j.Alpha)
	}
	for _, j := range r.Jobs {
		if j.FinishNs < j.StartNs {
			t.Errorf("job %+v finishes before it starts", j)
		}
		if !j.Departed && j.Intervals == 0 {
			t.Errorf("completed job %s/%d ran no intervals", j.Bench, j.Slot)
		}
		// The α-relaxed budget is never stricter than the baseline.
		if j.BudgetViolations > j.Violations {
			t.Errorf("job %s/%d: %d budget violations above %d baseline violations",
				j.Bench, j.Slot, j.BudgetViolations, j.Violations)
		}
	}
	if r.TimeNs <= 6e8 {
		t.Errorf("simulation ended at %v, before the delayed arrival", r.TimeNs)
	}
	if r.RMCalled == 0 {
		t.Error("manager never invoked")
	}

	// Determinism: an identical description must reproduce the run
	// bit for bit.
	again, err := RunDynamicWS(d, churnScenario(t), Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Jobs, again.Jobs) || r.EnergyJ != again.EnergyJ ||
		r.TimeNs != again.TimeNs || r.RMCalled != again.RMCalled {
		t.Error("dynamic run not deterministic")
	}
}

func TestDynamicValidation(t *testing.T) {
	d := sharedDB(t)
	mcf := apps(t, "mcf")[0]
	cases := []struct {
		name string
		dyn  Dynamic
	}{
		{"no cores", Dynamic{}},
		{"no jobs", Dynamic{Queues: []Queue{{}, {}}}},
		{"nil app", Dynamic{Queues: []Queue{{Jobs: []Job{{}}}}}},
		{"unknown app", Dynamic{Queues: []Queue{{Jobs: []Job{{App: &bench.Benchmark{Name: "gcc"}}}}}}},
		{"negative work", Dynamic{Queues: []Queue{{Jobs: []Job{{App: mcf, Work: -1}}}}}},
		{"bad step core", Dynamic{
			Queues: []Queue{{Jobs: []Job{{App: mcf}}}},
			Steps:  []QoSStep{{AtNs: 1, Core: 7, Alpha: 1.1}},
		}},
		{"bad step alpha", Dynamic{
			Queues: []Queue{{Jobs: []Job{{App: mcf}}}},
			Steps:  []QoSStep{{AtNs: 1, Core: -1}},
		}},
	}
	for _, tc := range cases {
		if _, err := RunDynamicWS(d, tc.dyn, Config{}, nil); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestDynamicIdleGap(t *testing.T) {
	// A queue gap leaves the core idle: wall-clock covers the gap but
	// only the uncore draws energy through it.
	d := sharedDB(t)
	const work = 3 * 100_000_000 * 2048
	dyn := Dynamic{Queues: []Queue{{Jobs: []Job{
		{App: apps(t, "povray")[0], Work: work},
		{App: apps(t, "povray")[0], Work: work, ArrivalNs: 1e10},
	}}}}
	r, err := RunDynamicWS(d, dyn, Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(r.Jobs))
	}
	if r.Jobs[1].StartNs != 1e10 {
		t.Errorf("second job started %v, want exactly its arrival", r.Jobs[1].StartNs)
	}
	if r.TimeNs <= 1e10 {
		t.Errorf("run ended %v, inside the idle gap", r.TimeNs)
	}
	// Identical work at (near) identical conditions: the two jobs' core
	// energies must agree closely, with no idle-time charge inflating
	// the second.
	e0, e1 := r.Jobs[0].EnergyJ, r.Jobs[1].EnergyJ
	if math.Abs(e0-e1) > 0.05*e0 {
		t.Errorf("idle gap distorted job energy: %v vs %v", e0, e1)
	}
}

func TestDynamicPerAppAlphaSavesEnergy(t *testing.T) {
	// Relaxing one application's QoS target must not cost energy with a
	// perfect predictor (the static single-alpha analogue is
	// TestAlphaRelaxationIncreasesSavings).
	d := sharedDB(t)
	base := staticDynamic(apps(t, "mcf", "povray"))
	relaxed := staticDynamic(apps(t, "mcf", "povray"))
	relaxed.Queues[0].Jobs[0].Alpha = 1.4
	cfg := Config{RM: rm.RM3, Perfect: true}
	strict, err := RunDynamicWS(d, base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RunDynamicWS(d, relaxed, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compare core+DRAM energy: a relaxed bottleneck application runs
	// longer, so total chip energy legitimately grows with the uncore
	// term, but the applications themselves must not spend more.
	if a, b := appEnergy(rel), appEnergy(strict); a > b*1.001 {
		t.Errorf("per-app α=1.4 app energy %.4f above α=1 energy %.4f", a, b)
	}
	if rel.Jobs[0].Alpha == rel.Jobs[1].Alpha {
		t.Error("per-app alphas not distinct in the results")
	}
}

// appEnergy sums core+DRAM energy over all jobs, excluding the uncore
// term that scales with wall-clock time.
func appEnergy(r *DynamicResult) float64 {
	s := 0.0
	for _, j := range r.Jobs {
		s += j.EnergyJ
	}
	return s
}

func TestDynamicTrailingStepIsNoOp(t *testing.T) {
	// A QoS step scheduled after every queue has drained has nothing
	// left to retarget: it must not stretch the wall clock (and with it
	// the uncore energy) of an already-finished run.
	d := sharedDB(t)
	cfg := Config{RM: rm.RM3}
	plain, err := RunDynamicWS(d, staticDynamic(apps(t, "mcf", "povray")), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	trailing := staticDynamic(apps(t, "mcf", "povray"))
	trailing.Steps = []QoSStep{{AtNs: plain.TimeNs * 10, Core: -1, Alpha: 1.1}}
	r, err := RunDynamicWS(d, trailing, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeNs != plain.TimeNs || r.EnergyJ != plain.EnergyJ {
		t.Errorf("trailing step changed the run: time %v vs %v, energy %v vs %v",
			r.TimeNs, plain.TimeNs, r.EnergyJ, plain.EnergyJ)
	}
}

func TestDynamicEdgeCases(t *testing.T) {
	d := sharedDB(t)
	const work = 2 * 100_000_000 * 2048
	// All cores idle at t=0; first arrivals staggered; one departure
	// time before its job can even start (overdue departure).
	dyn := Dynamic{Queues: []Queue{
		{Jobs: []Job{{App: apps(t, "mcf")[0], Work: work, ArrivalNs: 1e8}}},
		{Jobs: []Job{
			{App: apps(t, "povray")[0], Work: work, ArrivalNs: 2e8},
			{App: apps(t, "bwaves")[0], Work: work, DepartNs: 1e8},
		}},
	}}
	r, err := RunDynamicWS(d, dyn, Config{RM: rm.RM3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(r.Jobs))
	}
	for _, j := range r.Jobs {
		if j.Bench == "bwaves" {
			if !j.Departed || j.Intervals != 0 {
				t.Errorf("overdue-departure job must leave with zero work: %+v", j)
			}
			if j.FinishNs != j.StartNs {
				t.Errorf("overdue departure not instantaneous: %+v", j)
			}
		}
	}
	if r.TimeNs <= 2e8 {
		t.Errorf("run ended %v before the last arrival", r.TimeNs)
	}
}

func TestDynamicQoSStepRelaxes(t *testing.T) {
	// Stepping every core's alpha up mid-run must not increase energy
	// under a perfect predictor.
	d := sharedDB(t)
	cfg := Config{RM: rm.RM3, Perfect: true}
	plain, err := RunDynamicWS(d, staticDynamic(apps(t, "mcf", "povray")), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stepped := staticDynamic(apps(t, "mcf", "povray"))
	stepped.Steps = []QoSStep{{AtNs: plain.TimeNs / 100, Core: -1, Alpha: 1.4}}
	r, err := RunDynamicWS(d, stepped, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Core+DRAM energy must not grow from relaxing the targets (the
	// uncore term may, as the relaxed bottleneck runs longer).
	if a, b := appEnergy(r), appEnergy(plain); a > b*1.001 {
		t.Errorf("stepped run app energy %.4f above constant-alpha %.4f", a, b)
	}
	// The step must be visible in the recorded job alphas.
	for _, j := range r.Jobs {
		if j.Alpha != 1.4 {
			t.Errorf("job %s ended under alpha %v, want 1.4", j.Bench, j.Alpha)
		}
	}
}
