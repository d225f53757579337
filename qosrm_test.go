package qosrm

import (
	"sync"
	"testing"
)

var (
	once   sync.Once
	shared *System
	sysErr error
)

// sharedSystem builds a reduced-tracelen system over a subset of the
// suite for the facade tests.
func sharedSystem(t *testing.T) *System {
	t.Helper()
	once.Do(func() {
		shared, sysErr = Open(Options{
			TraceLen: 16384,
			Warmup:   4096,
			Benchmarks: []*Benchmark{
				MustBenchmark("mcf"),
				MustBenchmark("povray"),
				MustBenchmark("libquantum"),
				MustBenchmark("omnetpp"),
			},
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return shared
}

func TestSuiteAccessors(t *testing.T) {
	if len(Suite()) != 27 {
		t.Fatalf("suite size %d", len(Suite()))
	}
	if _, err := BenchmarkByName("mcf"); err != nil {
		t.Fatal(err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestMustBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBenchmark must panic on unknown names")
		}
	}()
	MustBenchmark("nope")
}

func TestBaselineReexport(t *testing.T) {
	b := Baseline()
	if b.Core != SizeM || b.Ways != 8 {
		t.Fatalf("baseline %v", b)
	}
}

func TestGenerateWorkloads(t *testing.T) {
	ws, err := GenerateWorkloads(Scenario1, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || len(ws[0].Apps) != 4 {
		t.Fatal("workload shape wrong")
	}
}

func TestSavingsAndRun(t *testing.T) {
	sys := sharedSystem(t)
	apps := []*Benchmark{MustBenchmark("libquantum"), MustBenchmark("omnetpp")}
	saving, res, err := sys.Savings(apps, SimConfig{RM: RM3, Perfect: true, DisableOverheads: true})
	if err != nil {
		t.Fatal(err)
	}
	if saving <= 0 {
		t.Fatalf("expected positive savings, got %.3f", saving)
	}
	if res.RMCalled == 0 {
		t.Fatal("manager never ran")
	}
	r, err := sys.Run(apps, SimConfig{RM: Idle})
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ <= 0 {
		t.Fatal("idle run broken")
	}
}

func TestClassify(t *testing.T) {
	sys := sharedSystem(t)
	cat, err := sys.Classify(MustBenchmark("povray"))
	if err != nil {
		t.Fatal(err)
	}
	if cat != CIPI {
		t.Errorf("povray classified %s", cat)
	}
}

func TestExperimentsBinding(t *testing.T) {
	sys := sharedSystem(t)
	ctx := sys.Experiments()
	if ctx.DB != sys.DB() {
		t.Fatal("experiments not bound to the system database")
	}
	cells := ctx.Fig1()
	if len(cells) != 10 {
		t.Fatal("fig1 broken via facade")
	}
}

func TestScenarioFacade(t *testing.T) {
	sys := sharedSystem(t)
	const work = 4 * 100_000_000 * 2048
	spec := ScenarioSpec{
		Name: "facade",
		Cores: []ScenarioCore{
			{Jobs: []ScenarioJob{
				{App: "mcf", Work: work},
				{App: "povray", Work: work, Alpha: 1.2},
			}},
			{Jobs: []ScenarioJob{{App: "libquantum", Work: 2 * work}}},
		},
	}
	rep, err := sys.RunScenario(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 || rep.RM != "RM3" {
		t.Fatalf("bad report: %+v", rep)
	}
	reps, err := sys.SweepScenarios([]ScenarioSpec{spec, spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].EnergyJ != reps[1].EnergyJ {
		t.Fatal("sweep of identical specs must agree")
	}
}

func TestChurnWorkloadFacade(t *testing.T) {
	churn, err := GenerateChurnWorkloads(Scenario3, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := ChurnScenario("churn", churn, 1e9)
	if len(spec.Cores) != 4 {
		t.Fatalf("%d cores", len(spec.Cores))
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}
