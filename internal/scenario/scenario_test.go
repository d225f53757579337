package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/rm"
	"qosrm/internal/sim"
	"qosrm/internal/workload"
)

var (
	once   sync.Once
	shared *db.DB
	dbErr  error
)

func sharedDB(t *testing.T) *db.DB {
	t.Helper()
	once.Do(func() {
		var benches []*bench.Benchmark
		for _, n := range []string{"mcf", "povray", "bwaves", "xalancbmk"} {
			b, err := bench.ByName(n)
			if err != nil {
				dbErr = err
				return
			}
			benches = append(benches, b)
		}
		shared, dbErr = db.Build(benches, db.Options{TraceLen: 16384, Warmup: 4096})
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return shared
}

// testSpec is a small two-core churn scenario over the shared database.
func testSpec(name string) Spec {
	const fiveIntervals = 5 * 100_000_000 * 2048
	core1 := 1
	return Spec{
		Name: name,
		RM:   "RM3",
		Cores: []CoreSpec{
			{Jobs: []JobSpec{
				{App: "mcf", Work: fiveIntervals, DepartNs: 2.5e8},
				{App: "povray", Work: fiveIntervals, Alpha: 1.2},
			}},
			{Jobs: []JobSpec{
				{App: "bwaves", Work: fiveIntervals},
				{App: "xalancbmk", Work: fiveIntervals, ArrivalNs: 5e8},
			}},
		},
		Steps: []StepSpec{{AtNs: 3e8, Core: &core1, Alpha: 1.1}},
	}
}

func TestLoadSingleAndArray(t *testing.T) {
	single := `{
		"name": "one",
		"rm": "RM2",
		"cores": [{"jobs": [{"app": "mcf", "alpha": 1.1}]}],
		"qos_steps": [{"at_ns": 1e9, "alpha": 1.2}]
	}`
	specs, err := Load(strings.NewReader(single))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "one" || specs[0].RM != "RM2" {
		t.Fatalf("bad single parse: %+v", specs)
	}
	if specs[0].Steps[0].Core != nil {
		t.Error("omitted step core must mean every core")
	}
	if err := specs[0].Validate(); err != nil {
		t.Fatal(err)
	}

	array := `[
		{"name": "a", "cores": [{"jobs": [{"app": "mcf"}]}]},
		{"name": "b", "cores": [{"jobs": [{"app": "povray", "arrival_ns": 5}]}]}
	]`
	specs, err = Load(strings.NewReader(array))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].Cores[0].Jobs[0].ArrivalNs != 5 {
		t.Fatalf("bad array parse: %+v", specs)
	}

	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := Load(strings.NewReader("{broken")); err == nil {
		t.Error("malformed JSON must fail")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Name: "no-cores"},
		{Name: "no-jobs", Cores: []CoreSpec{{}}},
		{Name: "unknown-app", Cores: []CoreSpec{{Jobs: []JobSpec{{App: "nginx"}}}}},
		{Name: "bad-rm", RM: "RM9", Cores: []CoreSpec{{Jobs: []JobSpec{{App: "mcf"}}}}},
		{Name: "bad-model", Model: "Model7", Cores: []CoreSpec{{Jobs: []JobSpec{{App: "mcf"}}}}},
		{Name: "neg-arrival", Cores: []CoreSpec{{Jobs: []JobSpec{{App: "mcf", ArrivalNs: -1}}}}},
		{Name: "bad-step", Cores: []CoreSpec{{Jobs: []JobSpec{{App: "mcf"}}}},
			Steps: []StepSpec{{AtNs: 1, Alpha: -2}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: want validation error", s.Name)
		}
	}
	good := testSpec("ok")
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestCompileMapsFields(t *testing.T) {
	s := testSpec("compile")
	dyn, cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RM != rm.RM3 {
		t.Errorf("RM %v", cfg.RM)
	}
	if len(dyn.Queues) != 2 || len(dyn.Queues[0].Jobs) != 2 {
		t.Fatalf("bad queues: %+v", dyn.Queues)
	}
	if dyn.Queues[0].Jobs[0].App.Name != "mcf" || dyn.Queues[0].Jobs[0].DepartNs != 2.5e8 {
		t.Errorf("job 0 mismapped: %+v", dyn.Queues[0].Jobs[0])
	}
	if len(dyn.Steps) != 1 || dyn.Steps[0].Core != 1 || dyn.Steps[0].Alpha != 1.1 {
		t.Errorf("step mismapped: %+v", dyn.Steps)
	}
}

func TestBenchmarksUnion(t *testing.T) {
	specs := []Spec{testSpec("a"), testSpec("b")}
	specs[1].Cores[0].Jobs[0].App = "povray" // duplicate across specs
	names := []string{}
	for _, b := range Benchmarks(specs) {
		names = append(names, b.Name)
	}
	want := []string{"mcf", "povray", "bwaves", "xalancbmk"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("union %v, want %v", names, want)
	}
}

func TestRunProducesReport(t *testing.T) {
	d := sharedDB(t)
	s := testSpec("run")
	r, err := Run(d, &s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "run" || r.RM != "RM3" {
		t.Errorf("report header wrong: %+v", r)
	}
	if len(r.Jobs) != 4 {
		t.Fatalf("%d job results, want 4", len(r.Jobs))
	}
	if r.EnergyJ <= 0 || r.IdleEnergyJ <= 0 || r.TimeNs <= 0 {
		t.Error("non-positive energies or time")
	}
	if math.Abs(r.Saving-(1-r.EnergyJ/r.IdleEnergyJ)) > 1e-12 {
		t.Error("saving not derived from the energy pair")
	}
	if r.RMCalled == 0 {
		t.Error("manager never invoked")
	}
	// The departing job must be flagged.
	departed := 0
	for _, j := range r.Jobs {
		if j.Departed {
			departed++
		}
	}
	if departed != 1 {
		t.Errorf("%d departed jobs, want 1", departed)
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	d := sharedDB(t)
	specs := []Spec{testSpec("s1"), testSpec("s2"), testSpec("s3")}
	specs[1].RM = "RM2"
	specs[2].Perfect = true

	parallel, err := Sweep(d, specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		seq, err := Run(d, &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], seq) {
			t.Errorf("spec %d: parallel report differs from sequential", i)
		}
	}
}

// wideSpec is testSpec on four cores: its two queues twice over.
func wideSpec(name string) Spec {
	s := testSpec(name)
	s.Cores = append(s.Cores, testSpec(name).Cores...)
	return s
}

// TestSweepIndependentOfWorkspaceHistory runs a mixed batch on one
// worker, so one sim.RunWorkspace, with its allocation policy's
// reduction state, carries over from spec to spec, and checks every
// report against a fresh Run. Neighbours differ in core count, manager,
// oracle mode, policy or idle-way donation; most keep the core count
// and the model3 policy, so its reduction tree is reused as it stands,
// and the last spec repeats the first after the rest of the batch.
func TestSweepIndependentOfWorkspaceHistory(t *testing.T) {
	d := sharedDB(t)
	specs := []Spec{
		testSpec("two"), testSpec("two-rm2-donate"),
		wideSpec("four-rm1"), wideSpec("four-perfect"), wideSpec("four-donate"),
		testSpec("two-greedy"), testSpec("two-brute"),
		testSpec("two-rm1"), testSpec("two-again"),
	}
	specs[1].RM = "RM2"
	specs[1].DonateIdleWays = true
	specs[2].RM = "RM1"
	specs[3].Perfect = true
	specs[4].DonateIdleWays = true
	specs[5].Policy = rm.PolicyGreedy
	specs[6].Policy = rm.PolicyBrute
	specs[7].RM = "RM1"

	reports, err := Sweep(d, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		fresh, err := Run(d, &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports[i], fresh) {
			t.Errorf("spec %s: report after the batch's earlier specs differs from a fresh run", specs[i].Name)
		}
	}
}

func TestSweepCollectsErrors(t *testing.T) {
	d := sharedDB(t)
	specs := []Spec{testSpec("good"), testSpec("bad")}
	// omnetpp is a valid suite application absent from the shared test
	// database, so validation passes and the run itself fails.
	specs[1].Cores[0].Jobs[0].App = "omnetpp"
	reports, err := Sweep(d, specs, 2)
	if err == nil {
		t.Fatal("want a joined error")
	}
	if reports[0] == nil || reports[1] != nil {
		t.Error("good scenario must still report; bad must not")
	}
}

func TestFromChurn(t *testing.T) {
	churn, err := workload.GenerateChurn(workload.Scenario1, 4, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := FromChurn("c", churn, 2e9)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 4 {
		t.Fatalf("%d cores", len(s.Cores))
	}
	for _, c := range s.Cores {
		if len(c.Jobs) != 3 {
			t.Fatalf("%d jobs per core, want 3", len(c.Jobs))
		}
		prev := -1.0
		for _, j := range c.Jobs {
			if j.ArrivalNs < prev {
				t.Error("queue not in arrival order")
			}
			prev = j.ArrivalNs
			if j.ArrivalNs > 2e9 {
				t.Errorf("arrival %v beyond the horizon", j.ArrivalNs)
			}
			if j.Work <= 0 {
				t.Error("non-positive work")
			}
			if j.Alpha == 1.0 {
				t.Error("strict alpha must stay implicit (0)")
			}
		}
	}
	// A generated schedule must compile to a valid dynamic description.
	if _, _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecJSONRoundTrip pins the on-disk format: a compiled spec
// marshals and re-parses to the same value.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := testSpec("rt")
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[0], s) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back[0], s)
	}
}

// TestStaticSpecMatchesSimRun closes the loop at the package level: a
// static single-job-per-core spec run through the scenario engine is
// bit-identical to plain sim.Run on the same workload.
func TestStaticSpecMatchesSimRun(t *testing.T) {
	d := sharedDB(t)
	s := Spec{
		Name: "static",
		RM:   "RM3",
		Cores: []CoreSpec{
			{Jobs: []JobSpec{{App: "mcf"}}},
			{Jobs: []JobSpec{{App: "povray"}}},
		},
	}
	r, err := Run(d, &s)
	if err != nil {
		t.Fatal(err)
	}
	mcf, _ := bench.ByName("mcf")
	povray, _ := bench.ByName("povray")
	want, err := sim.Run(d, []*bench.Benchmark{mcf, povray}, sim.Config{RM: rm.RM3})
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ != want.EnergyJ || r.TimeNs != want.TimeNs || r.RMCalled != want.RMCalled {
		t.Errorf("scenario run differs from sim.Run: %v/%v, %v/%v, %d/%d",
			r.EnergyJ, want.EnergyJ, r.TimeNs, want.TimeNs, r.RMCalled, want.RMCalled)
	}
	for _, j := range r.Jobs {
		if !reflect.DeepEqual(j.AppResult, want.Apps[j.Core]) {
			t.Errorf("core %d job result differs from app result", j.Core)
		}
	}
}
