package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/cpu"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/trace"
)

// pinnedBuildDigest is the snapshot digest (see snapshotDigest) of the
// full-suite database at the full sizes. Every build must reproduce it,
// whatever its worker count.
const pinnedBuildDigest uint64 = 0xe81631d247e1aad7

// buildOptions are the db.Build options of every database the benchmark
// builds; workers 0 is the default (GOMAXPROCS), as Open and dbgen use.
func buildOptions(sz sizes, workers int) db.Options {
	return db.Options{TraceLen: sz.traceLen, Warmup: sz.warmup, Workers: workers}
}

// snapshotDigest is the dbstore.Checksum of the database's snapshot
// bytes: equal digests mean byte-identical databases.
func snapshotDigest(d *db.DB) (uint64, error) {
	var buf bytes.Buffer
	if err := dbstore.Write(&buf, d); err != nil {
		return 0, err
	}
	return dbstore.Checksum(buf.Bytes()), nil
}

// checkDigest fails the run when a build's digest differs from the first
// one of the run or, at the full sizes, from the pinned value.
func (e *env) checkDigest(what string, got uint64, first *uint64) {
	switch {
	case *first == 0:
		*first = got
		if e.sz.pinned && got != pinnedBuildDigest {
			e.fail("%s digest %#x, pinned %#x", what, got, pinnedBuildDigest)
		}
	case got != *first:
		e.fail("%s digest %#x differs from the run's first build %#x", what, got, *first)
	}
}

// suiteInput is the build workload's set-up: the compiled-in suite,
// validated, as db.Build receives it.
func suiteInput() ([]*bench.Benchmark, error) {
	benches := slices.Clone(bench.Suite())
	for _, b := range benches {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	return benches, nil
}

func (e *env) recordBuildInput(benches []*bench.Benchmark) {
	phases := 0
	for _, b := range benches {
		phases += len(b.Phases)
	}
	e.input("apps", len(benches))
	e.input("phases", phases)
	e.input("trace_len", e.sz.traceLen)
	e.input("warmup", e.sz.warmup)
}

// builder is the build phase: full-suite db.Build with the default worker
// count and fresh scratch per build, exactly as Open and dbgen call it.
type builder struct {
	e         *env
	benches   []*bench.Benchmark
	opts      db.Options
	first     uint64
	secs, mbs []float64
}

// startBuild is the build phase's set-up, the suite's construction, whose
// time it returns so that work moved out of db.Build into it shows. It
// also returns the process's first build: that pays one-time costs (heap
// growth, lazy initialisation) that later builds do not, so it runs
// untimed, and is checked like the measured builds.
func startBuild(e *env) (*builder, *db.DB, float64, error) {
	t0 := time.Now()
	benches, err := suiteInput()
	if err != nil {
		return nil, nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	b := &builder{e: e, benches: benches, opts: buildOptions(e.sz, 0)}
	built, err := db.Build(benches, b.opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("first build: %w", err)
	}
	e.recordBuildInput(benches)
	e.attempted++
	sum, err := snapshotDigest(built)
	if err != nil {
		return nil, nil, 0, err
	}
	e.checkDigest("first build", sum, &b.first)
	return b, built, setup, nil
}

// runFor builds until d has passed, at least once.
func (b *builder) runFor(d time.Duration) {
	deadline := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		a0 := heapAlloc()
		t0 := time.Now()
		built, err := db.Build(b.benches, b.opts)
		dt := time.Since(t0)
		a1 := heapAlloc()
		b.e.attempted++
		if err != nil {
			b.e.fail("build: %v", err)
			continue
		}
		b.secs = append(b.secs, dt.Seconds())
		b.mbs = append(b.mbs, float64(a1-a0)/1e6)
		sum, err := snapshotDigest(built)
		if err != nil {
			b.e.fail("snapshot of build: %v", err)
			continue
		}
		b.e.checkDigest("build", sum, &b.first)
	}
}

// report sets the build metrics, medians over every build of the run.
func (b *builder) report() error {
	if len(b.secs) == 0 {
		return errors.New("no build succeeded")
	}
	b.e.input("builds", len(b.secs))
	b.e.set("build_s", median(b.secs))
	b.e.set("build_alloc_mb", median(b.mbs))
	return nil
}

// fCorners are the frequency grid indices db.Build simulates in detail
// (the database's unexported corner list).
var fCorners = [cpu.NumCorners]int{0, config.BaseFreqIdx, config.NumFreqs - 1}

// chainTimes is one single-worker pass through db.Build's public build
// chain: per phase, trace generation, annotation and ATD warm-up, the
// corner-batched timing walks, and an unshared replay of every distinct
// delivery order.
type chainTimes struct {
	generate, annotate, corners, unshared time.Duration
	llcEvents, perms                      int
}

// tracedChain runs the build chain over benches, timing each layer apart.
// Phases that never reach the LLC take db.Build's shortcut: three cpu.Run
// walks per core size, counted with the corner walks.
func tracedChain(benches []*bench.Benchmark, sz sizes) chainTimes {
	var ct chainTimes
	var freqs [cpu.NumCorners]float64
	for k, fi := range fCorners {
		freqs[k] = config.FreqGHz(fi)
	}
	scratch := &cpu.SweepScratch{}
	for _, b := range benches {
		for _, ph := range b.Phases {
			t0 := time.Now()
			insts := trace.Generate(ph.Params, sz.warmup+sz.traceLen)
			t1 := time.Now()
			full := cpu.Annotate(insts)
			tail := full.Tail(sz.warmup)
			warm := atd.MustNew(0)
			full.WarmATD(warm, sz.warmup)
			events := tail.LLCEvents()
			t2 := time.Now()
			ct.generate += t1.Sub(t0)
			ct.annotate += t2.Sub(t1)
			ct.llcEvents += len(events)

			var perms permSet
			for ci := config.NumSizes - 1; ci >= 0; ci-- {
				t0 := time.Now()
				if tail.L2Misses == 0 {
					for _, f := range freqs {
						cpu.Run(tail, cpu.RunConfig{Core: config.Sizes[ci], Ways: config.MinWays, FreqGHz: f})
					}
					ct.corners += time.Since(t0)
					continue
				}
				_, lanes := cpu.RunCorners(tail, config.Sizes[ci], freqs, scratch)
				ct.corners += time.Since(t0)
				for k := range lanes {
					for _, p := range lanes[k] {
						perms.add(p)
					}
				}
			}
			ct.perms += len(perms.perms)

			t3 := time.Now()
			for _, p := range perms.perms {
				a := warm.Fork()
				for _, r := range p {
					ev := &events[r]
					a.Access(ev.Addr, ev.InstIdx, ev.IsLoad)
				}
			}
			ct.unshared += time.Since(t3)
		}
	}
	return ct
}

// permSet collects the distinct delivery permutations of one phase.
type permSet struct {
	byHash map[uint64][]int
	perms  [][]int32
}

func (s *permSet) add(p []int32) {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	for _, i := range s.byHash[h] {
		if slices.Equal(s.perms[i], p) {
			return
		}
	}
	if s.byHash == nil {
		s.byHash = make(map[uint64][]int)
	}
	s.byHash[h] = append(s.byHash[h], len(s.perms))
	s.perms = append(s.perms, slices.Clone(p))
}

// traceBuild is the build phase's traced run. Each pass runs the public
// build chain single-worker, one unshared ATD replay, one Workers: 1
// db.Build, one default db.Build, and a snapshot save and load; the
// metrics are medians over the passes. db.replay_ms is the remainder the
// chain does not account for — the unexported replay tree, ATD feeds and
// record fill — so trace + cpu + replay = db.build_w1_ms. It returns the
// last default build and the snapshot it was saved to.
func traceBuild(e *env) (*db.DB, string, error) {
	benches, err := suiteInput()
	if err != nil {
		return nil, "", err
	}
	e.recordBuildInput(benches)
	path := filepath.Join(e.dir, "suite.qosdb")
	var gen, ann, cor, unshared, w1, speedup, alloc, save, load []float64
	var last chainTimes
	var snapMB float64
	var first uint64
	var built *db.DB
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	deadline := time.Now().Add(e.phase(buildShare))
	for len(w1) == 0 || time.Now().Before(deadline) {
		last = tracedChain(benches, e.sz)
		gen = append(gen, ms(last.generate))
		ann = append(ann, ms(last.annotate))
		cor = append(cor, ms(last.corners))
		unshared = append(unshared, ms(last.unshared))

		t0 := time.Now()
		dw1, err := db.Build(benches, buildOptions(e.sz, 1))
		tw1 := time.Since(t0)
		e.attempted++
		if err != nil {
			return nil, "", fmt.Errorf("Workers: 1 build: %w", err)
		}
		a0 := heapAlloc()
		t0 = time.Now()
		d, err := db.Build(benches, buildOptions(e.sz, 0))
		td := time.Since(t0)
		a1 := heapAlloc()
		e.attempted++
		if err != nil {
			return nil, "", fmt.Errorf("default build: %w", err)
		}
		w1 = append(w1, ms(tw1))
		speedup = append(speedup, ratio(tw1.Seconds(), td.Seconds()))
		alloc = append(alloc, float64(a1-a0)/1e6)
		built = d
		for _, b := range []struct {
			what string
			d    *db.DB
		}{{"Workers: 1 build", dw1}, {"default build", d}} {
			sum, err := snapshotDigest(b.d)
			if err != nil {
				return nil, "", err
			}
			e.checkDigest(b.what, sum, &first)
		}

		t0 = time.Now()
		if err := dbstore.Save(path, d); err != nil {
			return nil, "", err
		}
		save = append(save, ms(time.Since(t0)))
		t0 = time.Now()
		loaded, h, err := dbstore.Load(path)
		if err != nil {
			return nil, "", err
		}
		load = append(load, ms(time.Since(t0)))
		snapMB = float64(h.Bytes) / 1e6
		e.attempted++
		if sum, err := snapshotDigest(loaded); err != nil || sum != first {
			e.fail("loaded snapshot digest %#x (%v), built %#x", sum, err, first)
		}
	}
	e.input("build_passes", len(w1))

	e.set("trace.generate_ms", median(gen))
	e.set("cpu.annotate_ms", median(ann))
	e.set("cpu.run_corners_ms", median(cor))
	e.set("cpu.llc_events", float64(last.llcEvents))
	e.set("cpu.replay_perms", float64(last.perms))
	e.set("atd.unshared_replay_ms", median(unshared))
	e.set("db.build_w1_ms", median(w1))
	e.set("db.replay_ms", median(w1)-median(gen)-median(ann)-median(cor))
	e.set("db.parallel_speedup", median(speedup))
	e.set("db.alloc_mb", median(alloc))
	e.set("dbstore.save_ms", median(save))
	e.set("dbstore.load_ms", median(load))
	e.set("dbstore.snapshot_mb", snapMB)
	return built, path, nil
}
