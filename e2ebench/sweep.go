package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/sim"
	"qosrm/internal/workload"
)

// pinnedSweepDigest is the report digest (see digest) of each shape's
// full-size batch at the default seed, 1.
var pinnedSweepDigest = map[shape]string{shapeStatic: "92841868395ecdf6", shapeChurn: "86844bc6ff901a8f"}

// Churn schedule shape shared by the sweep batch and the served specs.
const (
	churnDepth     = 4
	churnHorizonNs = 2e9
	churnStepAlpha = 1.1
)

var paperScenarios = []workload.Scenario{workload.Scenario1, workload.Scenario2, workload.Scenario3, workload.Scenario4}

// staticSpec runs one static mix, one job per core, under rm k.
func staticSpec(name string, w workload.Workload, k rm.Kind) scenario.Spec {
	sp := scenario.Spec{Name: name, RM: k.String(), Cores: make([]scenario.CoreSpec, len(w.Apps))}
	for i, a := range w.Apps {
		sp.Cores[i] = scenario.CoreSpec{Jobs: []scenario.JobSpec{{App: a.Name}}}
	}
	return sp
}

// churnSpec is one Poisson churn schedule — per-application alphas drawn
// by the generator, one all-core QoS step at mid-horizon — under RM3.
func churnSpec(name string, s workload.Scenario, cores int, seed int64) (scenario.Spec, error) {
	churn, err := workload.GenerateChurnOpts(s, cores, churnDepth, seed, workload.ChurnOptions{Process: workload.ArrivalPoisson})
	if err != nil {
		return scenario.Spec{}, err
	}
	sp := scenario.FromChurn(name, churn, churnHorizonNs)
	sp.RM = "RM3"
	sp.Steps = []scenario.StepSpec{{AtNs: churnHorizonNs / 2, Alpha: churnStepAlpha}}
	return sp, nil
}

// sweepBatch is the sweep phase's input: for every cell of 4 and 8 cores
// × S1–S4, the static shape's mixes (workload.Generate) as
// one-job-per-core specs under RM1, RM2 and RM3 — Fig. 6's evaluation —
// or the churn shape's Poisson schedules under RM3.
func sweepBatch(seed int64, sz sizes, sh shape) ([]scenario.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs []scenario.Spec
	for _, cores := range []int{4, 8} {
		for _, s := range paperScenarios {
			if sh == shapeChurn {
				for i := 0; i < sz.churns; i++ {
					sp, err := churnSpec(fmt.Sprintf("%dCore-%s-churn%d", cores, s, i+1), s, cores, rng.Int63())
					if err != nil {
						return nil, err
					}
					specs = append(specs, sp)
				}
				continue
			}
			mixes, err := workload.Generate(s, cores, sz.mixes, rng.Int63())
			if err != nil {
				return nil, err
			}
			for _, w := range mixes {
				for _, k := range rm.Kinds {
					specs = append(specs, staticSpec(w.Name+"-"+k.String(), w, k))
				}
			}
		}
	}
	return specs, nil
}

// digest fingerprints a sequence of encoded values.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// referenceReports runs specs sequentially in process and returns each
// report's JSON encoding.
func referenceReports(d *db.DB, specs []scenario.Spec) ([][]byte, error) {
	var ws sim.RunWorkspace
	out := make([][]byte, len(specs))
	for i := range specs {
		rep, err := scenario.RunWS(d, &specs[i], &ws)
		if err != nil {
			return nil, err
		}
		if out[i], err = json.Marshal(rep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepSetup loads the snapshot and generates the batch: the sweep
// phase's set-up.
func sweepSetup(path string, seed int64, sz sizes, sh shape) (*db.DB, []scenario.Spec, error) {
	d, _, err := dbstore.Load(path)
	if err != nil {
		return nil, nil, err
	}
	specs, err := sweepBatch(seed, sz, sh)
	return d, specs, err
}

// prepareSweep computes the batch's reference reports — on the built
// database, so every check also covers the snapshot round trip — and runs
// the set-up setupReps times.
func prepareSweep(e *env, built *db.DB, path string, setupReps int) (*db.DB, []scenario.Spec, [][]byte, []float64, error) {
	specs, err := sweepBatch(e.cfg.seed, e.sz, e.shape)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ref, err := referenceReports(built, specs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if e.sz.pinned && e.cfg.seed == 1 {
		e.attempted++
		if got := digest(ref); got != pinnedSweepDigest[e.shape] {
			e.fail("batch digest %s, pinned %s", got, pinnedSweepDigest[e.shape])
		}
	}
	var setups []float64
	var d *db.DB
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if d, specs, err = sweepSetup(path, e.cfg.seed, e.sz, e.shape); err != nil {
			return nil, nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.input("specs_per_batch", len(specs))
	e.input("workers", runtime.GOMAXPROCS(0))
	return d, specs, ref, setups, nil
}

// checkReports counts one parallel batch: a spec fails when it errored or
// its report differs from the in-process reference.
func (e *env) checkReports(specs []scenario.Spec, reports []*scenario.Report, ref [][]byte) {
	e.attempted += int64(len(specs))
	for i, rep := range reports {
		if rep == nil {
			e.fail("spec %s: no report", specs[i].Name)
			continue
		}
		got, err := json.Marshal(rep)
		if err != nil || string(got) != string(ref[i]) {
			e.fail("spec %s: report differs from the in-process reference", specs[i].Name)
		}
	}
}

// sweeper is the sweep phase: batches through scenario.SweepContext with
// one worker per GOMAXPROCS over the snapshot-loaded database.
type sweeper struct {
	e            *env
	d            *db.DB
	specs        []scenario.Spec
	ref          [][]byte
	busy         time.Duration
	batches, run int
	allocated    uint64
}

// startSweep prepares the sweep phase and returns its set-up time, the
// median of a few set-ups.
func startSweep(e *env, built *db.DB, path string) (*sweeper, float64, error) {
	const setupReps = 5
	d, specs, ref, setups, err := prepareSweep(e, built, path, setupReps)
	if err != nil {
		return nil, 0, err
	}
	return &sweeper{e: e, d: d, specs: specs, ref: ref}, median(setups), nil
}

// runFor sweeps whole batches until d has passed, at least one.
func (s *sweeper) runFor(d time.Duration) {
	workers := runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		a0 := heapAlloc()
		t0 := time.Now()
		reports, _ := scenario.SweepContext(context.Background(), s.d, s.specs, workers)
		s.busy += time.Since(t0)
		s.allocated += heapAlloc() - a0
		s.run += len(s.specs)
		s.batches++
		s.e.checkReports(s.specs, reports, s.ref)
	}
}

// report sets the sweep metrics. Throughput is all specs completed over
// all host seconds spent in the sweeps.
func (s *sweeper) report() {
	s.e.input("batches", s.batches)
	s.e.set("sweep_scenarios_per_s", float64(s.run)/s.busy.Seconds())
	s.e.set("sweep_alloc_kb_per_scenario", float64(s.allocated)/float64(s.run)/1e3)
}

// boundary is one interval boundary of a managed run: the record the
// resource manager localised from.
type boundary struct {
	bench string
	phase int
	set   config.Setting
}

// simOutcome is the part of a report that comes straight from the two
// simulations, which the traced pass reproduces without scenario.Run.
type simOutcome struct {
	EnergyJ, IdleEnergyJ, TimeNs float64
	RMCalled                     int64
	Jobs                         []sim.JobResult
}

// tracedPass is one sequential pass over the batch with one workspace:
// per spec, Compile, then the idle and the managed sim.RunDynamicWS timed
// apart, the managed run's boundaries recorded through Config.Trace.
type tracedPass struct {
	compile, idle, managed time.Duration
	invocations            int64
	bounds                 []boundary
	outcomes               [][]byte
}

func runTracedPass(d *db.DB, specs []scenario.Spec, tp *tracedPass) error {
	*tp = tracedPass{bounds: tp.bounds[:0], outcomes: tp.outcomes[:0]}
	var ws sim.RunWorkspace
	record := func(ev sim.Event) { tp.bounds = append(tp.bounds, boundary{ev.Bench, ev.Phase, ev.Setting}) }
	for i := range specs {
		t0 := time.Now()
		dyn, cfg, err := specs[i].Compile()
		t1 := time.Now()
		if err != nil {
			return err
		}
		idleCfg := cfg
		idleCfg.RM = rm.Idle
		idle, err := sim.RunDynamicWS(d, dyn, idleCfg, &ws)
		t2 := time.Now()
		if err != nil {
			return err
		}
		cfg.Trace = record
		managed, err := sim.RunDynamicWS(d, dyn, cfg, &ws)
		t3 := time.Now()
		if err != nil {
			return err
		}
		tp.compile += t1.Sub(t0)
		tp.idle += t2.Sub(t1)
		tp.managed += t3.Sub(t2)
		tp.invocations += managed.RMCalled
		out, err := json.Marshal(simOutcome{managed.EnergyJ, idle.EnergyJ, managed.TimeNs, managed.RMCalled, managed.Jobs})
		if err != nil {
			return err
		}
		tp.outcomes = append(tp.outcomes, out)
	}
	return nil
}

// traceSweep is the sweep phase's traced run. Each pass runs the batch
// in parallel (untraced), sequentially untraced, and sequentially traced;
// then it replays the traced boundaries through db.Stats and the distinct
// records through rm.Localize. The metrics are medians over the passes.
// The parallel reports must match the traced pass's simulations spec for
// spec.
func traceSweep(e *env, built *db.DB, path string) error {
	d, specs, ref, _, err := prepareSweep(e, built, path, 1)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	n := float64(len(specs))
	us := func(t time.Duration) float64 { return float64(t) / 1e3 }
	var compile, idle, managed, invoke, speedup, overhead, statsNs, localize []float64
	var tp tracedPass
	var intervals, invocations, distinct int
	deadline := time.Now().Add(e.phase(sweepShare))
	for len(compile) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		reports, _ := scenario.SweepContext(context.Background(), d, specs, workers)
		parallel := time.Since(t0)
		e.checkReports(specs, reports, ref)

		// The untraced and traced sequential passes alternate order, so
		// neither always runs first after the parallel pass.
		var untraced, traced time.Duration
		for k := 0; k < 2; k++ {
			t0 = time.Now()
			if (k+len(compile))%2 == 0 {
				var ws sim.RunWorkspace
				for i := range specs {
					if _, err := scenario.RunWS(d, &specs[i], &ws); err != nil {
						return err
					}
				}
				untraced = time.Since(t0)
			} else {
				if err := runTracedPass(d, specs, &tp); err != nil {
					return err
				}
				traced = time.Since(t0)
			}
		}
		for i, rep := range reports {
			if rep == nil {
				continue // already counted
			}
			out, _ := json.Marshal(simOutcome{rep.EnergyJ, rep.IdleEnergyJ, rep.TimeNs, rep.RMCalled, rep.Jobs})
			if string(out) != string(tp.outcomes[i]) {
				e.fail("spec %s: parallel report differs from the traced pass", specs[i].Name)
			}
		}

		compile = append(compile, us(tp.compile)/n)
		idle = append(idle, us(tp.idle)/n)
		managed = append(managed, us(tp.managed)/n)
		invoke = append(invoke, ratio(us(tp.managed-tp.idle), float64(tp.invocations)))
		speedup = append(speedup, ratio(traced.Seconds(), parallel.Seconds()))
		overhead = append(overhead, 100*(ratio(traced.Seconds(), untraced.Seconds())-1))
		intervals, invocations = len(tp.bounds), int(tp.invocations)

		ns, records, err := replayStats(d, tp.bounds)
		if err != nil {
			return err
		}
		statsNs = append(statsNs, ns)
		distinct = len(records)
		localize = append(localize, localizeRecords(d, records))
	}
	e.input("specs_per_batch", len(specs))
	e.input("sweep_passes", len(compile))

	e.set("scenario.compile_us", median(compile))
	e.set("scenario.sweep_speedup", median(speedup))
	e.set("scenario.trace_overhead_pct", median(overhead))
	e.set("sim.idle_run_us", median(idle))
	e.set("sim.managed_run_us", median(managed))
	e.set("sim.intervals", float64(intervals))
	e.set("rm.invocations", float64(invocations))
	e.set("rm.invoke_us", median(invoke))
	e.set("rm.distinct_records", float64(distinct))
	e.set("rm.curve_reuse", 1-ratio(float64(distinct), float64(intervals)))
	e.set("rm.localize_us", median(localize))
	e.set("db.stats_ns", median(statsNs))
	return nil
}

// replayStats times db.Stats over every recorded boundary lookup (the
// median of a few replays, in ns per lookup) and returns the distinct
// records.
func replayStats(d *db.DB, bounds []boundary) (float64, []boundary, error) {
	const reps = 5
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, b := range bounds {
			if _, err := d.Stats(b.bench, b.phase, b.set); err != nil {
				return 0, nil, err
			}
		}
		per = append(per, ratio(float64(time.Since(t0)), float64(len(bounds))))
	}
	seen := make(map[boundary]bool)
	var records []boundary
	for _, b := range bounds {
		if !seen[b] {
			seen[b] = true
			records = append(records, b)
		}
	}
	return median(per), records, nil
}

// localizeSink keeps the Localize results observable.
var localizeSink float64

// localizeRecords times rm.Localize (RM3's search, Model3, the paper's
// alpha) over the distinct records, in µs per call.
func localizeRecords(d *db.DB, records []boundary) float64 {
	preds := make([]rm.ModelPredictor, len(records))
	for i, b := range records {
		st, err := d.Stats(b.bench, b.phase, b.set)
		if err != nil {
			continue // replayStats already verified every lookup
		}
		preds[i] = rm.ModelPredictor{Stats: perfmodel.FromDB(st, b.set), Model: perfmodel.Model3}
	}
	t0 := time.Now()
	for i := range preds {
		cv := rm.Localize(&preds[i], rm.RM3, rm.Options{})
		localizeSink += cv.Energy[0]
	}
	return ratio(float64(time.Since(t0))/1e3, float64(len(preds)))
}
