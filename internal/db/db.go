// Package db builds and serves the simulation database of the paper's
// methodology (Section IV-A): for every benchmark phase, detailed
// micro-architecture simulations are performed "over all possible core
// configurations, VF settings, and LLC allocations" and their results are
// collected for the interval-driven RM co-simulator to replay.
//
// The detailed simulations come from internal/cpu (the Sniper stand-in).
// Each phase is simulated at every core size and way allocation and at
// three frequency corners; other frequencies are served by interpolating
// core cycles (frequency-invariant to first order) and memory-stall time
// (smooth in frequency via DRAM queueing) between corners, which mirrors
// the frequency structure of the paper's own performance model (Eq. 1).
//
// Each run also records what the core's ATD — warmed alongside the main
// hierarchy and observing the run's LLC access stream in issue order —
// would have reported: the miss-vs-ways curve and the proposed
// leading-miss estimate matrix. The resource managers consume exactly
// those observations, never ground truth.
package db

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/cpu"
	"qosrm/internal/power"
	"qosrm/internal/trace"
)

// NumWays is the number of tracked way allocations (2..16).
const NumWays = config.MaxWays - config.MinWays + 1

// fCorners are the DVFS grid indices simulated in detail.
var fCorners = [3]int{0, config.BaseFreqIdx, config.NumFreqs - 1}

// Stats is the database record of one (phase, core, frequency, ways)
// point: ground-truth timing/energy inputs plus the ATD observations an
// RM running at this setting would see. Counter fields are float64 so
// frequency interpolation can blend corners.
type Stats struct {
	Instructions float64
	TimeNs       float64
	BaseNs       float64 // T0: dispatch + dependence time
	BranchNs     float64 // branch refill stalls
	CacheNs      float64 // exposed private-miss/LLC-hit stalls
	MemNs        float64 // exposed DRAM stalls (T_mem ground truth)

	L1Misses      float64
	LLCAccesses   float64
	LLCHits       float64
	LLCMisses     float64 // memory accesses MA of Eq. 5
	DRAMLoads     float64
	Writebacks    float64 // dirty LLC lines written back to DRAM
	LeadingMisses float64 // ground truth
	Mispredicts   float64
	MLP           float64

	// ATDMissCurve[w-MinWays] is the ATD miss estimate for allocation w.
	ATDMissCurve [NumWays]float64
	// ATDLM[c][w-MinWays] is the proposed extension's leading-miss
	// estimate for core size c at allocation w.
	ATDLM [config.NumSizes][NumWays]float64
}

// TPI returns the ground-truth time per instruction in nanoseconds.
func (s *Stats) TPI() float64 { return s.TimeNs / s.Instructions }

// ActualEnergyJ returns the ground-truth core+DRAM energy of executing
// n instructions of this phase at setting set (uncore energy is charged
// separately by the co-simulator, per Section IV-D1).
func (s *Stats) ActualEnergyJ(set config.Setting, n float64) float64 {
	scale := n / s.Instructions
	t := s.TimeNs * scale
	core := power.CoreEnergyJ(set.Core, set.Freq, int64(n+0.5), t)
	mem := power.MemEnergyJ(int64((s.LLCMisses+s.Writebacks)*scale + 0.5))
	return core + mem
}

// phaseData holds the simulated corners of one phase.
type phaseData struct {
	// Runs[c][k][w-MinWays] with k indexing fCorners.
	Runs [config.NumSizes][3][NumWays]Stats

	// dense is the lazily materialised full-grid record cache: one Stats
	// per (core, frequency, ways) setting, corner records copied and
	// off-corner records interpolated once, so the co-simulator's
	// per-interval lookups return a shared pointer instead of allocating
	// and re-interpolating on every call. Guarded by denseOnce; read-only
	// after materialisation. Unexported, and never persisted: snapshots
	// (internal/dbstore) store only the corners in Runs.
	denseOnce sync.Once
	dense     []Stats
}

// DB is the simulation database for a set of benchmarks. A phase's
// records must not change once a run has read them: co-simulators key
// memoized results by a record's address, or by benchmark and phase.
type DB struct {
	TraceLen int
	Warmup   int
	// Phases maps benchmark name to its per-phase data.
	Phases map[string][]*phaseData
}

// Options configures database construction.
type Options struct {
	TraceLen int // instructions measured per phase (default 65536)
	Warmup   int // cache warm-up prefix (default 16384)
	// Workers bounds build parallelism. When unset (or negative) it
	// defaults to runtime.GOMAXPROCS(0); work is sharded at
	// (phase, core size, frequency corner) granularity, so even a
	// single-benchmark build can use every core.
	Workers int
}

func (o *Options) fill() {
	if o.TraceLen <= 0 {
		o.TraceLen = 65536
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 16384
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// WithDefaults returns a copy of o with unset fields resolved — the
// parameters a Build call with o would actually use. Callers comparing
// a request against an existing database (snapshot staleness checks)
// need the resolved values.
func (o Options) WithDefaults() Options {
	o.fill()
	return o
}

// phasePrep is the setting-independent part of one phase's sweep: the
// generated trace, its annotated hierarchy behaviour, one ATD warmed
// over the warmup prefix, and the phase's shared LLC event list. It is
// computed once per phase (lazily, by whichever worker gets there
// first) and shared by all of the phase's sweep shards.
type phasePrep struct {
	once sync.Once
	tail *cpu.Annotated
	warm *atd.ATD

	// events is the phase's LLC access set in program order. Every run
	// of the phase observes exactly these events — only the delivery
	// order varies with the setting — so one shared list serves all
	// replays and a run is fully described by its delivery permutation.
	// Read-only after prepare; feeds index it without touching the
	// replay-tree lock below.
	events []cpu.LLCEvent

	// The padding keeps the replay-tree lock — bouncing between workers
	// of the same phase — off the cache lines of the read-only fields
	// above, which every shard reads on each event feed.
	_ [64]byte

	// tree is the prefix-sharing replay trie over delivery permutations
	// (see replayNode); mu guards its shape (edges, children). ATD
	// feeds happen outside the lock: a freshly inserted node is
	// published pending and its creator materialises the state while
	// other workers navigate, insert siblings, or block on exactly the
	// nodes they need.
	mu   sync.Mutex
	tree replayNode
}

// replayNode is one node of a phase's replay tree: a radix-trie node
// over delivery sequences. state is the ATD after observing the node's
// path from the warm root; edge holds the event ordinals replayed
// between the parent's snapshot and this one. Interior snapshots are
// frozen (they have COW descendants); leaf states are what the sweep
// records read. Where the seed's dedup could only reuse a replay whose
// entire sequence matched, the tree forks a copy-on-write snapshot at
// the divergence point, so runs sharing a prefix replay only their
// divergent suffixes.
//
// Nodes are inserted pending — shape under pp.mu, state computed by
// the inserting worker after unlocking — so the multi-millisecond ATD
// feeds never serialise the tree. ready is closed once state is
// published; it is nil only on the root, whose state is the warm ATD.
// A worker that needs a pending node's state blocks on ready; waits
// only ever target ancestors of the waiter's own insertion point, so
// they cannot cycle.
type replayNode struct {
	edge     []int32
	state    *atd.ATD
	children []*replayNode
	ready    chan struct{}
}

// prepare computes the phase preparation once. Build has validated p
// before any shard starts.
func (pp *phasePrep) prepare(p trace.Params, opts Options) {
	pp.once.Do(func() {
		insts := trace.Generate(p, opts.Warmup+opts.TraceLen)
		full := cpu.Annotate(insts)
		pp.tail = full.Tail(opts.Warmup)
		pp.warm = atd.MustNew(0)
		full.WarmATD(pp.warm, opts.Warmup)
		pp.events = pp.tail.LLCEvents()
		pp.tree.state = pp.warm
	})
}

// replay returns an ATD that has observed the phase's LLC events in the
// delivery order perm (event ordinals into pp.events) on top of the
// warm tag state. The replay tree shares work across runs: an exact
// duplicate returns the existing instance, and a run whose sequence
// shares a prefix with earlier runs forks a COW snapshot at the
// divergence point and replays only its suffix. All returned ATDs are
// read-only for every holder.
//
// The tree lock covers only trie navigation and node insertion; the
// ATD feeds themselves — the multi-millisecond part — run after the
// unlock, against pending nodes other workers can block on. Before
// this, the lock was held across every feed and the "parallel" build
// serialised on it whenever two workers shared a phase.
func (pp *phasePrep) replay(perm []int32) *atd.ATD {
	if len(perm) == 0 {
		// No LLC traffic: every run observes exactly the warm state.
		return pp.warm
	}
	pp.mu.Lock()
	cur := &pp.tree
	i := 0
	for {
		var next *replayNode
		for _, ch := range cur.children {
			if ch.edge[0] == perm[i] {
				next = ch
				break
			}
		}
		if next == nil {
			// No shared prefix beyond cur: insert a pending leaf and
			// replay the suffix outside the lock.
			leaf := &replayNode{
				edge:  append([]int32(nil), perm[i:]...),
				ready: make(chan struct{}),
			}
			cur.children = append(cur.children, leaf)
			suffix := leaf.edge
			pp.mu.Unlock()
			return pp.materialize(leaf, cur, suffix)
		}
		e := next.edge
		j := 1
		m := len(e)
		if rem := len(perm) - i; rem < m {
			m = rem
		}
		for j < m && e[j] == perm[i+j] {
			j++
		}
		if j == len(e) {
			cur = next
			i += j
			if i == len(perm) {
				// Exact duplicate of an earlier replay; it may still be
				// materialising under its inserting worker.
				pp.mu.Unlock()
				if cur.ready != nil {
					<-cur.ready
				}
				return cur.state
			}
			continue
		}
		// Diverged inside the edge: split it at j. The intermediate
		// snapshot forks the parent's state and replays the shared
		// prefix; the existing child keeps its state under a shortened
		// edge, and the new run forks the intermediate snapshot.
		//
		// The parent pointer and suffix are captured before unlocking:
		// a later split by another worker may shorten mid.edge and
		// re-parent mid, but the captured pair always reproduces the
		// path mid was created for. (Edge contents are immutable —
		// splits only re-slice — so captured headers stay valid.)
		mid := &replayNode{edge: e[:j:j], ready: make(chan struct{})}
		next.edge = e[j:]
		mid.children = append(mid.children, next)
		for ci, ch := range cur.children {
			if ch == next {
				cur.children[ci] = mid
				break
			}
		}
		midSuffix := mid.edge
		if i+j == len(perm) {
			// Unreachable while all sequences have equal length (no
			// sequence is a strict prefix of another), but keep the
			// trie correct if that ever changes.
			pp.mu.Unlock()
			return pp.materialize(mid, cur, midSuffix)
		}
		leaf := &replayNode{
			edge:  append([]int32(nil), perm[i+j:]...),
			ready: make(chan struct{}),
		}
		mid.children = append(mid.children, leaf)
		leafSuffix := leaf.edge
		pp.mu.Unlock()
		pp.materialize(mid, cur, midSuffix)
		return pp.materialize(leaf, mid, leafSuffix)
	}
}

// materialize computes a pending node's state outside the tree lock:
// wait for the parent's state (parents are always ancestors of the
// caller's insertion point, so waits cannot cycle), fork it, feed the
// suffix captured at insertion, and publish. Returns the state.
func (pp *phasePrep) materialize(node, parent *replayNode, suffix []int32) *atd.ATD {
	if parent.ready != nil {
		<-parent.ready
	}
	st := pp.feed(parent.state.Fork(), suffix)
	node.state = st
	close(node.ready)
	return st
}

// feed replays the given event ordinals into a and returns it.
func (pp *phasePrep) feed(a *atd.ATD, seq []int32) *atd.ATD {
	for _, r := range seq {
		e := pp.events[r]
		a.Access(e.Addr, e.InstIdx, e.IsLoad)
	}
	return a
}

// Build runs the detailed simulations for every phase of every benchmark
// in benches, in parallel across (phase, core size) shards. Every
// benchmark is validated, the trace parameters of all its phases
// included, before any shard starts, so an invalid input fails the build
// without simulating anything and a shard cannot fail.
//
// The sweep shares everything that is setting-independent: the trace is
// generated and annotated once per phase; all forty-five (frequency
// corner, way allocation) lanes of one core size are walked by a single
// corner-batched cpu.RunCorners pass that advances only as many chains
// as the lanes are distinguishable into; and ATD observations come from
// a per-phase replay tree over the ATD — warmed once, since warmup does
// not depend on the setting — whose copy-on-write snapshots let runs
// sharing a delivery-sequence prefix replay only their divergent
// suffixes. The result is bit-identical to the seed sweep, which
// re-derived all of this for each of the ~135 runs of a phase; the
// package's tests keep it as BuildReference.
func Build(benches []*bench.Benchmark, opts Options) (*DB, error) {
	return build(context.Background(), benches, opts, nil)
}

// Workspace retains the per-worker sweep scratches of a database build
// across Build calls, in the mould of rm.Workspace and sim.RunWorkspace:
// the scratch matrices (issue times, permutations, rings, sort keys) are
// by far the largest allocations of a build and depend only on the trace
// length, so a caller rebuilding databases of the same shape — the
// perfbench suite, a parameter sweep — reuses them instead of re-growing
// them from nil every time. The zero value is ready. A Workspace is not
// safe for concurrent use: one Build at a time (the build itself still
// runs parallel workers; each worker gets its own retained scratch).
type Workspace struct {
	scratches []*cpu.SweepScratch
}

// Build is db.Build reusing ws's sweep scratches. Results are
// bit-identical to db.Build's.
func (ws *Workspace) Build(benches []*bench.Benchmark, opts Options) (*DB, error) {
	return build(context.Background(), benches, opts, ws)
}

// scratch returns the retained scratch of worker w, growing the pool on
// first use of a wider worker count.
func (ws *Workspace) scratch(w int) *cpu.SweepScratch {
	for len(ws.scratches) <= w {
		ws.scratches = append(ws.scratches, &cpu.SweepScratch{})
	}
	return ws.scratches[w]
}

// BuildContext is Build honouring ctx: workers check for cancellation
// before starting each (phase, core size, corner) shard, so a cancelled
// build abandons its remaining work promptly (in-flight shards finish;
// a shard is a few milliseconds of simulation). A cancelled build
// returns ctx's error and no database.
func BuildContext(ctx context.Context, benches []*bench.Benchmark, opts Options) (*DB, error) {
	return build(ctx, benches, opts, nil)
}

func build(ctx context.Context, benches []*bench.Benchmark, opts Options, ws *Workspace) (*DB, error) {
	opts.fill()
	d := &DB{
		TraceLen: opts.TraceLen,
		Warmup:   opts.Warmup,
		Phases:   make(map[string][]*phaseData, len(benches)),
	}
	type job struct {
		b     *bench.Benchmark
		phase int
		prep  *phasePrep
		pd    *phaseData
		ci    int // core-size shard
	}
	var perPhase [][]job
	for _, b := range benches {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("db: %w", err)
		}
		d.Phases[b.Name] = make([]*phaseData, len(b.Phases))
		for p := range b.Phases {
			prep := &phasePrep{}
			pd := &phaseData{}
			d.Phases[b.Name][p] = pd
			// Largest core first: its reorder window makes it the
			// slowest walk, so it must not be the straggler a worker
			// picks up last when the queue is nearly drained.
			var shard []job
			for ci := config.NumSizes - 1; ci >= 0; ci-- {
				shard = append(shard, job{b: b, phase: p, prep: prep, pd: pd, ci: ci})
			}
			perPhase = append(perPhase, shard)
		}
	}
	// Round-robin the phases' shards so concurrent workers land on
	// DIFFERENT phases: adjacent same-phase jobs would contend on the
	// phase's lazy preparation and serialize on its replay-tree lock,
	// flattening multi-core scaling.
	var jobs []job
	for i := 0; ; i++ {
		added := false
		for _, shard := range perPhase {
			if i < len(shard) {
				jobs = append(jobs, shard[i])
				added = true
			}
		}
		if !added {
			break
		}
	}

	var wg sync.WaitGroup
	// The buffered channel lets submission complete without serialising
	// on slow workers.
	ch := make(chan job, len(jobs))
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		scratch := &cpu.SweepScratch{}
		if ws != nil {
			scratch = ws.scratch(w)
		}
		go func() {
			defer wg.Done()
			for j := range ch {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without simulating
				}
				buildShard(j.b.Phases[j.phase].Params, opts, j.prep, j.pd, j.ci, scratch)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A cancelled build must not look partially usable: the phase
		// map is dropped with the error.
		return nil, fmt.Errorf("db: build cancelled: %w", err)
	}
	return d, nil
}

// buildShard simulates one core size of a phase — all three frequency
// corners at all fifteen way allocations — in a single corner-batched
// sweep walk over the shared phase preparation.
func buildShard(p trace.Params, opts Options, prep *phasePrep, pd *phaseData, ci int, scratch *cpu.SweepScratch) {
	prep.prepare(p, opts)
	if prep.tail.L2Misses == 0 {
		// No measured access ever reaches the LLC, so the timing walk
		// cannot depend on the way allocation and the ATD observes
		// nothing beyond its warm state: one run per corner serves all
		// fifteen allocations verbatim.
		for k, fi := range fCorners {
			r := cpu.Run(prep.tail, cpu.RunConfig{
				Core:    config.Sizes[ci],
				Ways:    config.MinWays,
				FreqGHz: config.FreqGHz(fi),
			})
			for wi := 0; wi < NumWays; wi++ {
				fillStats(&pd.Runs[ci][k][wi], &r, prep.warm)
			}
		}
		return
	}
	var freqs [cpu.NumCorners]float64
	for k, fi := range fCorners {
		freqs[k] = config.FreqGHz(fi)
	}
	results, perms := cpu.RunCorners(prep.tail, config.Sizes[ci], freqs, scratch)
	var prevPerm []int32
	var prevATD *atd.ATD
	for k := range results {
		for wi := range results[k] {
			p := perms[k][wi]
			// Lanes with identical delivery orders share one
			// permutation slice (RunCorners's contract); reuse the
			// replay without touching the tree.
			a := prevATD
			if prevATD == nil || &p[0] != &prevPerm[0] {
				a = prep.replay(p)
				prevPerm, prevATD = p, a
			}
			fillStats(&pd.Runs[ci][k][wi], &results[k][wi], a)
		}
	}
}

// fillStats converts one timing-run result and its ATD observations into
// a database record.
func fillStats(st *Stats, r *cpu.Result, a *atd.ATD) {
	*st = Stats{
		Instructions:  float64(r.Instructions),
		TimeNs:        r.TimeNs,
		BaseNs:        r.BaseNs,
		BranchNs:      r.BranchNs,
		CacheNs:       r.CacheNs,
		MemNs:         r.MemNs,
		L1Misses:      float64(r.L1Misses),
		LLCAccesses:   float64(r.LLCAccesses),
		LLCHits:       float64(r.LLCHits),
		LLCMisses:     float64(r.LLCMisses),
		DRAMLoads:     float64(r.DRAMLoads),
		Writebacks:    float64(r.Writebacks),
		LeadingMisses: float64(r.LeadingMisses),
		Mispredicts:   float64(r.Mispredicts),
		MLP:           r.MLP,
	}
	for wj := 0; wj < NumWays; wj++ {
		st.ATDMissCurve[wj] = float64(a.Misses(config.MinWays + wj))
		for cj := range config.Sizes {
			st.ATDLM[cj][wj] = float64(a.LeadingMisses(config.Sizes[cj], config.MinWays+wj))
		}
	}
}

// Stats returns the (interpolated) record for a benchmark phase at an
// arbitrary grid setting. It returns an error for unknown benchmarks,
// phase indices or off-grid settings.
//
// The returned record points into the phase's dense grid cache — every
// grid setting's record is materialised once (corner records copied,
// off-corner records interpolated) on the phase's first lookup, and
// subsequent calls are an index into that cache with no allocation or
// re-interpolation. Callers must treat the record as read-only; the
// values are bit-identical to the seed's per-call interpolation, which
// the package's tests keep as StatsReference.
func (d *DB) Stats(benchName string, phase int, set config.Setting) (*Stats, error) {
	pd, err := d.phase(benchName, phase, set)
	if err != nil {
		return nil, err
	}
	pd.denseOnce.Do(pd.materialize)
	idx := (int(set.Core)*config.NumFreqs+set.Freq)*NumWays + set.Ways - config.MinWays
	return &pd.dense[idx], nil
}

// phase validates a lookup and resolves its phase data.
func (d *DB) phase(benchName string, phase int, set config.Setting) (*phaseData, error) {
	if !set.Valid() {
		return nil, fmt.Errorf("db: invalid setting %v", set)
	}
	phases, ok := d.Phases[benchName]
	if !ok {
		return nil, fmt.Errorf("db: unknown benchmark %q", benchName)
	}
	if phase < 0 || phase >= len(phases) {
		return nil, fmt.Errorf("db: %s has no phase %d", benchName, phase)
	}
	pd := phases[phase]
	if pd == nil {
		return nil, fmt.Errorf("db: %s phase %d not built", benchName, phase)
	}
	return pd, nil
}

// materialize fills the dense grid from the simulated corners.
func (pd *phaseData) materialize() {
	g := make([]Stats, config.NumSizes*config.NumFreqs*NumWays)
	i := 0
	for ci := 0; ci < config.NumSizes; ci++ {
		for fi := 0; fi < config.NumFreqs; fi++ {
			for wi := 0; wi < NumWays; wi++ {
				g[i] = *pd.lookup(config.CoreSize(ci), fi, wi)
				i++
			}
		}
	}
	pd.dense = g
}

// lookup computes the record at one grid point the seed way: an exact
// corner is copied, anything else interpolated between its two
// surrounding corners.
func (pd *phaseData) lookup(core config.CoreSize, freq, wi int) *Stats {
	row := &pd.Runs[core]

	// Exact corner?
	for k, fi := range fCorners {
		if fi == freq {
			s := row[k][wi]
			return &s
		}
	}
	// Interpolate between the two surrounding corners.
	lo, hi := 0, 1
	if freq > fCorners[1] {
		lo, hi = 1, 2
	}
	fl, fh := config.FreqGHz(fCorners[lo]), config.FreqGHz(fCorners[hi])
	f := config.FreqGHz(freq)
	t := (f - fl) / (fh - fl)
	return interpolate(&row[lo][wi], &row[hi][wi], fl, fh, f, t)
}

// interpolate blends two frequency corners: cycle-domain linear for the
// frequency-scalable components, time-domain linear for memory stall,
// linear for counters.
func interpolate(a, b *Stats, fa, fb, f, t float64) *Stats {
	lerp := func(x, y float64) float64 { return x + (y-x)*t }
	cyc := func(xa, xb float64) float64 {
		// Convert corner times to cycles, blend, convert back.
		return lerp(xa*fa, xb*fb) / f
	}
	out := &Stats{
		Instructions:  a.Instructions,
		BaseNs:        cyc(a.BaseNs, b.BaseNs),
		BranchNs:      cyc(a.BranchNs, b.BranchNs),
		CacheNs:       cyc(a.CacheNs, b.CacheNs),
		MemNs:         lerp(a.MemNs, b.MemNs),
		L1Misses:      lerp(a.L1Misses, b.L1Misses),
		LLCAccesses:   lerp(a.LLCAccesses, b.LLCAccesses),
		LLCHits:       lerp(a.LLCHits, b.LLCHits),
		LLCMisses:     lerp(a.LLCMisses, b.LLCMisses),
		DRAMLoads:     lerp(a.DRAMLoads, b.DRAMLoads),
		Writebacks:    lerp(a.Writebacks, b.Writebacks),
		LeadingMisses: lerp(a.LeadingMisses, b.LeadingMisses),
		Mispredicts:   lerp(a.Mispredicts, b.Mispredicts),
	}
	out.TimeNs = out.BaseNs + out.BranchNs + out.CacheNs + out.MemNs
	if out.LeadingMisses > 0 {
		out.MLP = out.DRAMLoads / out.LeadingMisses
		if out.MLP < 1 {
			out.MLP = 1
		}
	} else {
		out.MLP = 1
	}
	for w := range out.ATDMissCurve {
		out.ATDMissCurve[w] = lerp(a.ATDMissCurve[w], b.ATDMissCurve[w])
		for c := range out.ATDLM {
			out.ATDLM[c][w] = lerp(a.ATDLM[c][w], b.ATDLM[c][w])
		}
	}
	return out
}

// Benchmarks returns the names present in the database.
func (d *DB) Benchmarks() []string {
	out := make([]string, 0, len(d.Phases))
	for name := range d.Phases {
		out = append(out, name)
	}
	return out
}

// NumPhases returns the phase count of a benchmark (0 if unknown).
func (d *DB) NumPhases(benchName string) int { return len(d.Phases[benchName]) }
