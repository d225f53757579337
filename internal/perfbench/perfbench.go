// Package perfbench is the repository's performance measurement layer:
// a fixed suite of benchmarks over the production hot paths of the
// reproduction — the detailed-simulation database sweep and its
// snapshot store, the per-interval resource-manager invocation
// (Localize + Workspace.Optimize), the database record lookup, whole
// co-simulations, scenario sweeps and one HTTP request.
//
// The suite is executed by cmd/perfbench, which serialises the results
// as a BENCH_<n>.json file committed to the repository so the
// performance trajectory is tracked across PRs. The retained seed
// implementations live in their packages' tests, and `go test -bench`
// pairs there measure the production paths against them (see
// EXPERIMENTS.md).
package perfbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/loadgen"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/server"
	"qosrm/internal/sim"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// WallMs is the wall-clock the entry took to measure end to end
	// (all of testing.Benchmark's calibration runs, not just the final
	// one) — it makes a committed report auditable: an entry whose
	// ns/op claims X but whose wall-clock could not have covered N×X
	// was measured wrong.
	WallMs float64 `json:"wall_ms,omitempty"`
}

// Report is the serialised form of one suite execution.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs records the scheduler width the suite actually ran
	// with. NumCPU alone cannot distinguish "flat parallel curve
	// because the code doesn't scale" from "flat because the runtime
	// was pinned to one P" — a committed report must say which.
	GoMaxProcs int      `json:"gomaxprocs"`
	Short      bool     `json:"short"`
	Results    []Result `json:"results"`
	// Load holds the open-loop load-test topology comparison from
	// RunLoad (cmd/perfbench -load). The regression gate ignores it —
	// reject rates and tail latencies on shared runners are too noisy
	// to gate on — but the committed trajectory records them.
	Load []*loadgen.Result `json:"load,omitempty"`
}

// Ratio returns NsPerOp(a)/NsPerOp(b), or 0 when either is missing.
func (r *Report) Ratio(a, b string) float64 {
	ra, rb := r.find(a), r.find(b)
	if ra == nil || rb == nil || rb.NsPerOp == 0 {
		return 0
	}
	return ra.NsPerOp / rb.NsPerOp
}

func (r *Report) find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// buildWorkload returns the database-build workload: the full synthetic
// suite, or a four-application cross-category subset in short mode.
func buildWorkload(short bool) ([]*bench.Benchmark, db.Options, error) {
	opts := db.Options{TraceLen: 8192, Warmup: 2048}
	if short {
		names := []string{"mcf", "povray", "bwaves", "xalancbmk"}
		out := make([]*bench.Benchmark, len(names))
		for i, n := range names {
			b, err := bench.ByName(n)
			if err != nil {
				return nil, opts, err
			}
			out[i] = b
		}
		return out, opts, nil
	}
	return bench.Suite(), opts, nil
}

// Run executes the suite and collects a report. Short mode shrinks the
// database workloads so CI finishes in seconds.
func Run(short bool) (*Report, error) {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Short:      short,
	}

	benches, opts, err := buildWorkload(short)
	if err != nil {
		return nil, err
	}

	// Shared fixture for the lookup/RM benchmarks: one small database.
	mcf, err := bench.ByName("mcf")
	if err != nil {
		return nil, err
	}
	povray, err := bench.ByName("povray")
	if err != nil {
		return nil, err
	}
	fixture, err := db.Build([]*bench.Benchmark{mcf, povray}, opts)
	if err != nil {
		return nil, err
	}
	base, err := fixture.Stats("mcf", 0, config.Baseline())
	if err != nil {
		return nil, err
	}
	pred := &rm.ModelPredictor{
		Stats: perfmodel.FromDB(base, config.Baseline()),
		Model: perfmodel.Model3,
	}
	altSet := config.Setting{Core: config.SizeS, Freq: 0, Ways: config.MinWays}
	alt, err := fixture.Stats("mcf", 0, altSet)
	if err != nil {
		return nil, err
	}
	altPred := &rm.ModelPredictor{
		Stats: perfmodel.FromDB(alt, altSet),
		Model: perfmodel.Model3,
	}
	const cores = 8
	curves := make([]*rm.Curve, cores)
	for i := range curves {
		cv := rm.Localize(pred, rm.RM3, rm.Options{})
		curves[i] = &cv
	}

	add := func(name string, f func(b *testing.B)) {
		start := time.Now()
		r := testing.Benchmark(f)
		rep.Results = append(rep.Results, Result{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			WallMs:      float64(time.Since(start).Microseconds()) / 1000,
		})
	}

	// The database sweep.
	add("DatabaseBuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Build(benches, opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Parallel scaling of the sharded sweep: the same build at fixed
	// worker counts plus the machine width, so the committed reports
	// record the scaling curve rather than 1-core numbers only.
	seenW := map[int]bool{}
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		if seenW[w] {
			continue
		}
		seenW[w] = true
		workers := w
		add(fmt.Sprintf("DatabaseBuildParallel/W%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Build(benches, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Snapshot cold start vs the equivalent build: the same workload as
	// DatabaseBuild, loaded from a prebuilt dbstore snapshot — the
	// qosrmd boot path. The ratio to DatabaseBuild is the cold-start
	// speedup the serving layer's snapshot store buys (the ISSUE 4
	// acceptance bar is ≥10×).
	snapDir, err := os.MkdirTemp("", "qosrm-perfbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)
	snapPath := filepath.Join(snapDir, "suite.qosdb")
	snapDB, err := db.Build(benches, opts)
	if err != nil {
		return nil, err
	}
	if err := dbstore.Save(snapPath, snapDB); err != nil {
		return nil, err
	}
	add("DatabaseSnapshotSave", func(b *testing.B) {
		out := filepath.Join(snapDir, "save.qosdb")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dbstore.Save(out, snapDB); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("DatabaseSnapshotLoad", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dbstore.Load(snapPath); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One phase's full configuration sweep (a single cache-sensitive
	// application), isolating the per-phase cost from suite effects. The
	// workspace persists across iterations, so this entry tracks the
	// steady-state sweep cost a database-rebuilding caller sees — the
	// scratch matrices are paid for once, not per op.
	add("PhaseSweep", func(b *testing.B) {
		var ws db.Workspace
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Build([]*bench.Benchmark{mcf}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Database record lookups across the full grid, served from the
	// dense cache.
	add("DBStats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := config.Setting{
				Core: config.CoreSize(i % config.NumSizes),
				Freq: i % config.NumFreqs,
				Ways: config.MinWays + i%db.NumWays,
			}
			if _, err := fixture.Stats("mcf", 0, set); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One local optimisation (the paper's per-core curve computation).
	add("Localize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rm.Localize(pred, rm.RM3, rm.Options{})
		}
	})

	// The per-interval RM invocation path of the co-simulator: one
	// core's curve refresh plus the global redistribution across eight
	// cores. Core 0 alternates between the curves of two records of mcf
	// phase 0 (at the baseline and at the smallest grid setting), which
	// differ, so every op changes one core's curve as an interval
	// boundary does. The two curves are precomputed, as the database's
	// warm curve table hands them to the engine, and each op recombines
	// the one changed leaf-to-root path of the reduction workspace.
	var warm [2]*rm.Curve
	for i, p := range [2]rm.Predictor{pred, altPred} {
		cv := rm.Localize(p, rm.RM3, rm.Options{})
		warm[i] = &cv
	}
	add("RMInvocation", func(b *testing.B) {
		var ws rm.Workspace
		out := make([]config.Setting, cores)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			curves[0] = warm[i%2]
			if !ws.Optimize(curves, config.TotalWays(cores), out) {
				b.Fatal("infeasible")
			}
		}
	})

	// A whole two-core co-simulation, exercising the integrated path
	// (curve table, workspace reduction, dense stats lookups).
	add("CoSimulation", func(b *testing.B) {
		apps := []*bench.Benchmark{mcf, povray}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(fixture, apps, sim.Config{RM: rm.RM3, Model: perfmodel.Model3}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same workload through the dynamic engine (a static
	// single-job-per-core queue): the ratio to CoSimulation is the
	// churn machinery's overhead on the common path, with the results
	// asserted bit-identical by TestDynamicMatchesStaticRun.
	add("DynamicStaticRun", func(b *testing.B) {
		dyn := sim.Dynamic{Queues: []sim.Queue{
			{Jobs: []sim.Job{{App: mcf}}},
			{Jobs: []sim.Job{{App: povray}}},
		}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunDynamicWS(fixture, dyn, sim.Config{RM: rm.RM3, Model: perfmodel.Model3}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A scenario batch: several churn scenarios — arrivals, departures,
	// per-app alphas, a QoS step — swept in parallel over the shared
	// fixture database, the cmd/scenarios hot path. Runs on the unified
	// engine (as every entry above does since the PR 5 unification).
	add("ScenarioBatch", func(b *testing.B) {
		specs := scenarioBatch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.Sweep(fixture, specs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A policy-comparison sweep: one churn scenario cloned across every
	// registered allocation policy (model3 / greedy / brute) and swept
	// over the shared database — the policy shoot-out path of
	// cmd/scenarios -policies and examples/policy-shootout.
	add("PolicySweep", func(b *testing.B) {
		specs, err := scenario.PolicySweep(scenarioBatch()[:1], rm.PolicyNames())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.Sweep(fixture, specs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One scenario through the HTTP serving layer: POST /v1/scenarios
	// against an in-process qosrmd server over the fixture database —
	// the full request path (decode, validate, simulate, encode). The
	// delta to a bare scenario run is the serving overhead per request.
	srv, err := server.New(fixture, server.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	specJSON, err := json.Marshal(scenarioBatch()[0])
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, err
	}
	add("ServerScenarioRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(specJSON))
			if err != nil {
				b.Fatal(err)
			}
			var rep scenario.Report
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				resp.Body.Close()
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rep.Name == "" {
				b.Fatalf("status %d, report %+v", resp.StatusCode, rep)
			}
		}
	})
	ts.Close()
	srv.Close()

	return rep, nil
}

// scenarioBatch is the fixed churn batch ScenarioBatch sweeps: four
// two-core scenarios over the fixture applications, exercising
// departures, delayed arrivals, heterogeneous alphas and QoS steps.
func scenarioBatch() []scenario.Spec {
	const work = 4 * 100_000_000 * 2048
	base := scenario.Spec{
		Cores: []scenario.CoreSpec{
			{Jobs: []scenario.JobSpec{
				{App: "mcf", Work: work, DepartNs: 2e8},
				{App: "povray", Work: work, Alpha: 1.2},
			}},
			{Jobs: []scenario.JobSpec{
				{App: "povray", Work: work},
				{App: "mcf", Work: work, ArrivalNs: 3e8},
			}},
		},
		Steps: []scenario.StepSpec{{AtNs: 2.5e8, Alpha: 1.1}},
	}
	specs := make([]scenario.Spec, 4)
	for i := range specs {
		specs[i] = base
		specs[i].Name = fmt.Sprintf("bench-%d", i)
	}
	specs[1].RM = "RM2"
	specs[2].Perfect = true
	specs[3].RM = "RM1"
	return specs
}

// GateBenchmarks are the hot-path entries the CI regression gate
// watches.
var GateBenchmarks = []string{"DatabaseBuild", "RMInvocation", "CoSimulation", "ScenarioBatch"}

// GateNames returns the subset of GateBenchmarks that is meaningfully
// comparable between the two reports. DatabaseBuild's workload depends
// on the report's Short mode (the short suite is a small subset), so
// comparing a short run against a full baseline would make its gate
// vacuously green; the RM-invocation, co-simulation and scenario-batch
// fixtures are identical in both modes.
func GateNames(fresh, baseline *Report) []string {
	if fresh.Short == baseline.Short {
		return GateBenchmarks
	}
	return []string{"RMInvocation", "CoSimulation", "ScenarioBatch"}
}

// Gate compares a fresh report against a committed baseline and returns
// an error when any watched benchmark regressed by more than maxRegress
// (a fraction: 0.25 fails on >25% higher ns/op). Entries missing from
// either report fail the gate — a silently dropped benchmark must not
// read as a pass. Machine differences make cross-host comparisons
// approximate; the gate is deliberately loose and only catches gross
// regressions.
func Gate(fresh, baseline *Report, names []string, maxRegress float64) error {
	var errs []string
	for _, name := range names {
		f, b := fresh.find(name), baseline.find(name)
		switch {
		case b == nil:
			errs = append(errs, fmt.Sprintf("%s: missing from baseline", name))
		case f == nil:
			errs = append(errs, fmt.Sprintf("%s: missing from fresh run", name))
		case b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*(1+maxRegress):
			errs = append(errs, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				name, f.NsPerOp, b.NsPerOp, 100*(f.NsPerOp/b.NsPerOp-1), 100*maxRegress))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("perfbench gate: %s", strings.Join(errs, "; "))
	}
	return nil
}

// BestOf merges measurement runs into a noise-robust report: for every
// benchmark name appearing in the first report, the result with the
// lowest ns/op across all reports is kept. Minimum-of-runs is the
// standard estimator for regression gating on shared machines — a
// co-tenant can only inflate a measurement, never deflate it.
func BestOf(reports ...*Report) *Report {
	if len(reports) == 0 {
		return nil
	}
	out := *reports[0]
	out.Results = append([]Result(nil), reports[0].Results...)
	for i := range out.Results {
		for _, r := range reports[1:] {
			if cand := r.find(out.Results[i].Name); cand != nil && cand.NsPerOp < out.Results[i].NsPerOp {
				out.Results[i] = *cand
			}
		}
	}
	return &out
}

// Summary renders the headline comparisons of a report.
func (r *Report) Summary() string {
	s := ""
	if ratio := r.Ratio("DynamicStaticRun", "CoSimulation"); ratio != 0 {
		s += fmt.Sprintf("dynamic-engine overhead on static runs: %.2fx\n", ratio)
	}
	if ratio := r.Ratio("DatabaseBuild", "DatabaseSnapshotLoad"); ratio != 0 {
		s += fmt.Sprintf("snapshot cold start vs build: %.1fx faster\n", ratio)
	}
	if first, last, ratio := r.parallelScaling(); ratio != 0 {
		s += fmt.Sprintf("build parallel scaling %s -> %s: %.2fx\n",
			strings.TrimPrefix(first, "DatabaseBuildParallel/"),
			strings.TrimPrefix(last, "DatabaseBuildParallel/"), ratio)
	}
	if w := r.ScalingWarning(); w != "" {
		s += "WARNING: " + w + "\n"
	}
	for _, l := range r.Load {
		s += fmt.Sprintf("load %s @ %.0f req/s: %.1f%% rejected, %.0f admitted/s, p50 %.1fms p99 %.1fms (%d forwarded)\n",
			l.Name, l.TargetRPS, 100*l.RejectRate, l.AchievedRPS, l.P50Ms, l.P99Ms, l.Forwarded)
	}
	return s
}

// parallelScaling resolves the W1→Wmax speedup recorded in the report:
// the names of the narrowest and widest DatabaseBuildParallel entries
// and first's ns/op divided by last's (>1 means the wide build is
// faster). Zero ratio when the report has fewer than two width entries.
func (r *Report) parallelScaling() (first, last string, ratio float64) {
	for _, res := range r.Results {
		if strings.HasPrefix(res.Name, "DatabaseBuildParallel/") {
			if first == "" {
				first = res.Name
			}
			last = res.Name
		}
	}
	if first == "" || last == first {
		return "", "", 0
	}
	return first, last, r.Ratio(first, last)
}

// ScalingWarning reports a flat parallel-build curve measured on a
// machine wide enough to show one: non-empty when the report ran with
// more than one scheduler P and the widest worker count is less than
// 1.2× faster than one worker. A flat curve on a multi-core box means
// the sharded build is serialising somewhere and must not slip into a
// committed BENCH file unremarked; on a single-P run the curve cannot
// slope and the warning stays silent.
func (r *Report) ScalingWarning() string {
	if r.GoMaxProcs <= 1 {
		return ""
	}
	first, last, ratio := r.parallelScaling()
	if ratio == 0 || ratio >= 1.2 {
		return ""
	}
	return fmt.Sprintf("parallel build speedup %s -> %s is %.2fx on a %d-P machine (< 1.2x): the sharded build is not scaling",
		strings.TrimPrefix(first, "DatabaseBuildParallel/"),
		strings.TrimPrefix(last, "DatabaseBuildParallel/"), ratio, r.GoMaxProcs)
}

// LoadReport reads a committed BENCH_<n>.json report.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	return &r, nil
}
