// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed measurement time, checks the
// program's outputs, and prints its metrics as the last line of standard
// output:
//
//	e2ebench -workload static|churn -seed N -seconds S -trace 0|1
//
// Every run measures three phases one after another: the full-suite
// database build, an in-process sweep over the snapshot of that database,
// and a two-node qosrmd cluster serving the same engine over HTTP. The
// workload sets the scenario shape of the sweep batch and of the served
// requests; the seed generates them.
//
// With -trace 0 it prints every end-to-end metric. With -trace 1 a
// separate traced run of the same workload prints every per-layer metric.
// Layers are measured from outside: the benchmark times its own calls into
// each layer's public functions and, for the serving layer, reads the
// servers' /metrics. run.sh builds this module from the checkout and runs
// it; BENCHMARK.json at the repository root declares the workloads and
// metrics.
//
// The line before the result records the box and the input size (num_cpu,
// gomaxprocs, go version, seed, and the phases' size parameters), since
// numbers from different boxes are not comparable. An end-to-end run also
// times a speed probe of its own before its phase segments and scales its
// time metrics to a reference speed (probe.go); the box record then gives
// the probe's figures and the unscaled values.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qosrm/internal/dbstore"
)

// sizes are the input sizes of one run. full is what the benchmark
// measures; tiny exists for the self-test, which only checks that every
// workload runs, prints every metric and passes its output checks.
type sizes struct {
	// traceLen and warmup parameterise every database build.
	traceLen, warmup int
	// mixes and churns are the static mixes and churn schedules per sweep
	// cell (4 and 8 cores × S1–S4).
	mixes, churns int
	// rate is the serve phase's open-loop request rate; syncPool and
	// jobPool the number of distinct synchronous and asynchronous specs
	// the requests draw from, large enough that the pools' mean cost
	// varies little between seeds.
	rate              float64
	syncPool, jobPool int
	// pinned enables the checks against the pinned output digests; they
	// hold only at the full sizes.
	pinned bool
}

var (
	fullSizes = sizes{traceLen: 8192, warmup: 2048, mixes: 8, churns: 24, rate: 300, syncPool: 256, jobPool: 128, pinned: true}
	tinySizes = sizes{traceLen: 256, warmup: 64, mixes: 1, churns: 1, rate: 100, syncPool: 4, jobPool: 4}
)

// A run gives its measurements these shares of -seconds. After the
// set-ups, a part of the serve phase's open-loop window, builds, sweeps
// and the serve phase's closed loop take turns for rounds rounds, so that
// each samples the whole run and not one stretch of the box's drifting
// speed. A traced run gives each phase's traced run its share in one
// piece.
const (
	windowShare, buildShare, sweepShare, closedShare = 0.30, 0.25, 0.25, 0.20
	rounds                                           = 6
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// work is the directory scratch snapshots and journals go under.
	work string
}

func (c runConfig) sizes() sizes {
	if c.tiny {
		return tinySizes
	}
	return fullSizes
}

// shape is the kind of scenario a workload sweeps and serves.
type shape int

const (
	shapeStatic shape = iota
	shapeChurn
)

// workloads are the benchmark's workloads, each with the reason it was
// chosen (its "why" in BENCHMARK.json). Both run the same build phase,
// whose input is the compiled-in suite, so a build change should move
// both alike.
var workloads = []struct {
	name  string
	shape shape
}{
	// static: the paper's own evaluation (Fig. 6) — one-job-per-core mixes
	// from workload.Generate under RM1, RM2 and RM3 at the paper's alpha.
	// Every interval revisits the mix's few (phase, setting) records, so
	// the resource manager's cached curves are reused heavily.
	{"static", shapeStatic},
	// churn: the engine's dynamic extension — Poisson arrival schedules
	// with per-application alphas and a mid-run QoS step under RM3. Jobs
	// come and go and alpha varies, so the same engine reuses cached curves
	// less and pays more arrival and departure bookkeeping.
	{"churn", shapeChurn},
}

// endToEnd lists the end-to-end metrics with their units; every run of
// every workload prints all of them. perLayer lists the per-layer
// metrics, which every traced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"build_alloc_mb", "MB"},
	{"sweep_scenarios_per_s", "1/s"},
	{"sweep_alloc_kb_per_scenario", "KB"},
	{"serve_scenario_p50_ms", "ms"},
	{"serve_scenario_p90_ms", "ms"},
	{"serve_job_p50_ms", "ms"},
	{"serve_job_p90_ms", "ms"},
	{"serve_peak_rps", "1/s"},
}

// scaled lists the end-to-end metrics the speed probe scales (probe.go):
// a time (1) is multiplied by the speed, a rate (-1) divided by it. They
// are the throughput metrics, which the processor's speed sets. The box's
// speed does not set the allocations, nor the set-up, which mostly waits
// for the first gossip exchange. Part of every serve latency is the
// driver's timer lateness and the journal's fsync, which do not follow
// the processor; scaled, the latencies spread no less than unscaled.
var scaled = map[string]int{
	"build_s":               1,
	"sweep_scenarios_per_s": -1,
	"serve_peak_rps":        -1,
}

var perLayer = []struct{ name, unit string }{
	{"trace.generate_ms", "ms"},
	{"cpu.annotate_ms", "ms"},
	{"cpu.run_corners_ms", "ms"},
	{"cpu.llc_events", "count"},
	{"cpu.replay_perms", "count"},
	{"atd.unshared_replay_ms", "ms"},
	{"db.build_w1_ms", "ms"},
	{"db.replay_ms", "ms"},
	{"db.parallel_speedup", "ratio"},
	{"db.alloc_mb", "MB"},
	{"dbstore.save_ms", "ms"},
	{"dbstore.load_ms", "ms"},
	{"dbstore.snapshot_mb", "MB"},
	{"scenario.compile_us", "us"},
	{"scenario.sweep_speedup", "ratio"},
	{"scenario.trace_overhead_pct", "%"},
	{"sim.idle_run_us", "us"},
	{"sim.managed_run_us", "us"},
	{"sim.intervals", "count"},
	{"rm.invocations", "count"},
	{"rm.invoke_us", "us"},
	{"rm.distinct_records", "count"},
	{"rm.curve_reuse", "ratio"},
	{"rm.localize_us", "us"},
	{"db.stats_ns", "ns"},
	{"api.decode_us", "us"},
	{"scenario.validate_us", "us"},
	{"scenario.run_us", "us"},
	{"api.encode_us", "us"},
	{"server.scenarios_ms", "ms"},
	{"server.sim_ms", "ms"},
	{"server.other_us", "us"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.job_exec_ms", "ms"},
	{"jobstore.append_ms", "ms"},
	{"jobstore.bytes_per_job", "bytes"},
	{"cluster.forwarded_frac", "ratio"},
	{"cluster.forward_rtt_ms", "ms"},
	{"cluster.peer_probe_ms", "ms"},
	{"cluster.gossip_exchange_ms", "ms"},
	{"client.lag_ms", "ms"},
	{"client.submit_ack_ms", "ms"},
	{"client.transport_us", "us"},
}

// units maps every metric the benchmark can print to its unit.
// BENCHMARK.json declares the same names and units (the self-test checks).
var units = make(map[string]string)

func init() {
	for _, m := range append(endToEnd, perLayer...) {
		units[m.name] = m.unit
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state of one run: its configuration, scratch directory,
// operation counts, failed output checks and measured metrics.
type env struct {
	cfg   runConfig
	sz    sizes
	shape shape
	dir   string
	box   map[string]any
	vals  map[string]float64

	attempted, failed int64
	problems          []string
}

// fail counts one failed operation and keeps the first few reasons for
// the diagnostics on standard error.
func (e *env) fail(format string, args ...any) {
	const keep = 20
	e.failed++
	if len(e.problems) < keep {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value; the name must be a declared metric.
func (e *env) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("e2ebench: undeclared metric " + name)
	}
	e.vals[name] = v
}

// input records one input-size field of the box record.
func (e *env) input(key string, v any) {
	e.box["input"].(map[string]any)[key] = v
}

// phase is the measurement time of a phase with the given share.
func (e *env) phase(share float64) time.Duration {
	return time.Duration(share * e.cfg.seconds * float64(time.Second))
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: static or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (the build phase's input is the compiled-in suite and ignores it)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds, shared by the three phases")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.work, "work", os.TempDir(), "directory for scratch snapshots and journals")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and prints the box record and the result.
// It returns an error, and prints no result, when the run itself could
// not be carried out; failed output checks are reported in the result.
func run(cfg runConfig, stdout, stderr io.Writer) error {
	sh := shape(-1)
	for _, w := range workloads {
		if w.name == cfg.workload {
			sh = w.shape
		}
	}
	if sh < 0 {
		return fmt.Errorf("unknown workload %q (want static or churn)", cfg.workload)
	}
	if !(cfg.seconds > 0) {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		cfg: cfg, sz: cfg.sizes(), shape: sh, dir: dir,
		vals: make(map[string]float64),
		box: map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"seed":       cfg.seed,
			"workload":   cfg.workload,
			"traced":     cfg.trace,
			"seconds":    cfg.seconds,
			"input":      map[string]any{},
		},
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
		err = tracePipeline(e)
	} else {
		err = runPipeline(e)
	}
	if err != nil {
		return err
	}

	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metric)}
	for _, m := range names {
		v, ok := e.vals[m.name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", cfg.workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %v is not finite", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	res.Correct = e.failed == 0
	for _, p := range e.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}

	box, err := json.Marshal(e.box)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "box %s\n%s\n", box, line)
	return nil
}

// runPipeline is one end-to-end run. The set-ups come first: the build
// phase's, then the sweep and serve phases' over the database it built,
// saved as the snapshot they load. setup_s is their sum, so work moved
// into any of them shows. Then the rounds, with the speed probe sampled
// before every segment, and last the scaling.
func runPipeline(e *env) error {
	probe, err := newSpeedProbe(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	defer probe.close()
	b, built, buildSetup, err := startBuild(e)
	if err != nil {
		return err
	}
	snapshot := filepath.Join(e.dir, "suite.qosdb")
	if err := dbstore.Save(snapshot, built); err != nil {
		return err
	}
	sw, sweepSetup, err := startSweep(e, built, snapshot)
	if err != nil {
		return err
	}
	sv, err := e.startServe(built, snapshot)
	if err != nil {
		return err
	}
	defer sv.close()
	e.set("setup_s", buildSetup+sweepSetup+median(sv.setups))

	for i := 0; i < rounds; i++ {
		probe.samples()
		if err := e.windowPart(sv, i, rounds); err != nil {
			return err
		}
		probe.samples()
		b.runFor(e.phase(buildShare / rounds))
		probe.samples()
		sw.runFor(e.phase(sweepShare / rounds))
		probe.samples()
		e.closedFor(sv, e.phase(closedShare/rounds))
	}
	if err := e.endWindow(sv); err != nil {
		return err
	}
	e.input("rounds", rounds)
	e.input("closed_s", e.phase(closedShare).Seconds())
	sw.report()
	e.reportServe(sv)
	if err := b.report(); err != nil {
		return err
	}
	e.scale(probe)
	return nil
}

// scale applies the speed probe to the metrics it scales and records the
// probe's figures and the unscaled values in the box record.
func (e *env) scale(p *speedProbe) {
	speed := p.speed()
	unscaled := make(map[string]float64, len(scaled))
	for name, dir := range scaled {
		v := e.vals[name]
		unscaled[name] = v
		if dir > 0 {
			e.vals[name] = v * speed
		} else {
			e.vals[name] = v / speed
		}
	}
	e.box["probe_ms"] = median(p.ms)
	e.box["probe_samples"] = len(p.ms)
	e.box["speed"] = speed
	e.box["unscaled"] = unscaled
}

// tracePipeline is one traced run: the three phases' traced runs over
// the database the traced build phase built and saved.
func tracePipeline(e *env) error {
	built, snapshot, err := traceBuild(e)
	if err != nil {
		return err
	}
	if err := traceSweep(e, built, snapshot); err != nil {
		return err
	}
	return traceServe(e, built, snapshot)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks of the sorted samples (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapAlloc returns the bytes the Go heap has allocated so far.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
