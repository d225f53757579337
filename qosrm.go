// Package qosrm is a full reproduction of "Coordinated Management of
// Processor Configuration and Cache Partitioning to Optimize Energy
// under QoS Constraints" (Nejat, Manivannan, Pericàs, Stenström —
// IPDPS 2020, arXiv:1911.05114).
//
// The package exposes the complete stack the paper builds and evaluates:
//
//   - a synthetic SPEC CPU2006-like benchmark suite with SimPoint-style
//     phases (Suite, BenchmarkByName);
//   - a detailed out-of-order core + partitioned-cache simulation
//     substrate that produces the per-phase configuration database
//     (Open / Options);
//   - the proposed ATD leading-miss extension and the three online
//     performance models (Model1/Model2/Model3);
//   - the three resource managers (RM1: LLC partitioning, RM2: +DVFS,
//     RM3: +core adaptation) with the paper's local/global optimisation;
//   - the interval-driven multicore co-simulator (System.Run) and one
//     driver per paper table/figure (System.Experiments).
//
// Quick start:
//
//	sys, err := qosrm.Open(qosrm.Options{})
//	if err != nil { ... }
//	apps := []*qosrm.Benchmark{qosrm.MustBenchmark("povray"), qosrm.MustBenchmark("mcf")}
//	saving, res, err := sys.Savings(apps, qosrm.SimConfig{RM: qosrm.RM3})
//
// # Performance architecture
//
// The two hot paths — the detailed-simulation database sweep and the
// per-interval RM invocation — share or memoize everything that does not
// depend on the quantity being varied. Every optimized path is paired
// with a retained seed implementation (the *Reference functions) and
// equivalence tests assert the outputs are bit-identical, so these are
// pure speedups with no numerical drift in figure or table outputs.
// Seed implementations that only tests call live in their packages'
// test files: db.BuildReference and DB.StatsReference,
// rm.GlobalOptimizeReference and sim's frozen pre-unification engines.
// The seed database sweep walks each grid point through a chain that
// crosses packages — cpu.RunReference and Annotated.WarmATDReference
// feed atd.AccessReference, which calls cache.LRUStack.AccessReference —
// and each link needs its own package's internals, so that chain is
// still production code.
//
// Database sweep (db.Build): per phase, the trace is generated and its
// cache hierarchy behaviour annotated once, and each instruction's
// kernel class and latency are precomputed, both setting-independent.
// All forty-five (frequency corner, way allocation) lanes of a core
// size are walked in one corner-batched cpu.RunCorners pass over
// structure-of-arrays per-lane state: frequency enters the timing
// recurrence only through per-lane constants (ns per cycle, dispatch
// step, L3 latency, branch penalty), so batching the three corners
// into one walk pays the per-instruction fixed costs — class dispatch,
// dependence-row resolution, ring indexing — once instead of three
// times, and hides the latency of each lane's serial float dependence
// chain across the others. The walk partitions lanes into dynamically
// refined groups: lanes can only diverge where an LLC access's
// miss/hit boundary falls strictly inside their way interval, and that
// boundary position is corner-invariant, so one scan splits every
// straddling group and one representative chain serves each
// still-indistinguishable group — compute-bound phases walk a handful
// of chains instead of forty-five. Per-allocation LLC/DRAM counters
// are computed in a single histogram pass shared by all runs.
//
// ATD observations come from a per-phase prefix-sharing replay tree:
// all runs of a phase observe the same LLC event set (only delivery
// order varies with the setting), so a run is its delivery permutation,
// recovered from the walk's issue-time matrix by an adaptive argsort —
// issue columns arrive nearly sorted (the dispatch cursor is close to
// monotone), so a budgeted insertion repair handles the common case in
// about one pass and a column that blows its inversion budget falls
// back to an LSD radix sort over the float bit patterns, which skips
// the byte positions a column's shared exponent range leaves constant.
// Identical permutations share one replayed ATD, and a run whose
// permutation shares a prefix with earlier runs forks a copy-on-write
// snapshot at the divergence point — tag state lives in flat
// structure-of-arrays rows shared between the warm state and all
// descendants (cache.COWStack), and a fork copies only the sets it
// actually touches — then replays only its divergent suffix. The tree's
// lock covers only trie shape; the multi-millisecond ATD feeds run
// against pending nodes other workers can block on, so workers sharing
// a phase never serialise on each other's replays. Phases whose
// measured window never reaches the LLC collapse to one timing walk
// per (core, frequency corner). Work is sharded at (phase, core size)
// granularity across Options.Workers goroutines — largest core first,
// so the slowest walk is never the straggler — and a db.Workspace
// retains the per-worker sweep scratches across builds; the
// DatabaseBuildParallel perfbench entries record the scaling curve and
// Report.ScalingWarning flags a flat curve on multi-core machines.
//
// RM invocation path (sim.Run): rm.Localize is a pure function of the
// measured interval's database record (benchmark, phase, setting), or
// of (benchmark, phase) for the perfect oracle, plus alpha, the RM kind
// and the model. Its curves are memoized in one table per database,
// shared by every run against it: sweep workers, qosrmd's job workers
// and its synchronous requests. So Localize runs once per distinct key
// the database ever sees instead of at every interval boundary. The
// table is bounded (it clears itself at 32768 curves and refills), its
// warm lookups take no lock and allocate nothing, and it is attached to
// the database through a weak-keyed registry in internal/sim, so a
// dropped database takes its table with it. The global pairwise curve
// reduction reuses an rm.Workspace, the reduction tree as a preallocated
// arena that also remembers the previous call: each leaf keeps a copy of
// its core's energies and an inner node recombines only when a child
// changed, so a boundary where only the invoking core's curve changed
// recomputes one leaf-to-root path. Each node also keeps its finite
// window, the range outside which every energy is +Inf, and combines
// walk only the windows. The root is never combined in full; it is
// solved for the one total it needs, E(totalWays). Settings go into a
// reused slice, making the per-interval path allocation-free. Database
// lookups (db.Stats) index into a per-phase dense grid of records,
// materialised once per phase — corner records copied, off-corner
// records interpolated — and shared read-only thereafter.
//
// Cache invalidation is structural rather than temporal: every cache
// key pins the full set of inputs its value depends on (phase
// preparation per (benchmark, phase, trace length, warmup); replay
// dedup per delivery sequence; curve table per predictor input record,
// alpha, RM kind and model; dense grid per phase), and all cached
// values are immutable once published, so nothing is ever invalidated
// in place. The reduction tree is the one memo that is compared rather
// than keyed: it checks every leaf's energies bit for bit on each call,
// so its result depends only on the curves' contents, never on the
// order of calls.
//
// The scenario sweep reuses a sim.RunWorkspace per worker — per-core
// state and the allocation policy's arena survive across a spec and its
// idle twin — and qosrmd pools workspaces for synchronous scenarios.
//
// # Engine & policy architecture
//
// One event-driven engine executes every workload shape (internal/sim,
// engine.go). The paper's static evaluation — one application pinned per
// core, run to a fixed instruction target — is the degenerate schedule
// of one zero-arrival run-to-completion job per core; System.Run builds
// exactly that schedule and routes it through the same loop that drives
// multiprogrammed churn, per-app QoS relaxation, mid-run QoS steps,
// queue priorities and way donation. The pre-unification static and
// dynamic loops are retained verbatim as test-only references
// (internal/sim/reference_test.go) and cross-seed property tests pin the
// unified engine bit-identical to both on their shared feature set — the
// retained-reference pattern used by every optimized pair in this
// package.
//
// The allocation decision — per-core energy curves in, per-core
// (core size, frequency, ways) settings out — sits behind the rm.Policy
// interface. Three named policies ship: "model3" (the paper's optimal
// pairwise curve reduction, the default), "greedy" (the marginal-utility
// heuristic) and "brute" (exhaustive enumeration, the optimality
// reference for small systems). A policy is selected per run
// (SimConfig.Policy), per scenario (ScenarioSpec.Policy, the "policy"
// JSON field), per HTTP request (the savings/scenario/job bodies), or
// system-wide (Options.Policy); System.Policies lists the registry and
// PolicySweep expands a scenario batch along the policy axis for
// shoot-out comparisons. New optimizers — priority-aware allocation,
// the integer-programming-game equilibrium solvers of the related-work
// list — drop in as additional policies without touching the engine.
//
// Two scheduling extensions ride on the unified engine: drained cores
// can donate their pinned LLC ways back to the optimisation
// (SimConfig.DonateIdleWays / the "donate_idle_ways" spec field), and
// queue priorities with preemption (Job.Priority / the per-job
// "priority" spec field) let urgent arrivals suspend background work,
// which later resumes with its progress intact. Both default off,
// preserving the paper's semantics bit for bit.
//
// The perfbench suite (internal/perfbench, cmd/perfbench) measures both
// sides of each pair and records the trajectory in committed
// BENCH_<n>.json files; CI runs it in short mode on every push and
// gates merges on >25% ns/op regressions of the watched hot paths
// against the committed baseline (perfbench.Gate).
//
// # Scenario engine
//
// The paper evaluates its managers on static workloads only: one
// application pinned per core, one global QoS target, run to completion.
// The scenario engine generalises that to dynamic, declarative
// scenarios. sim.RunDynamicWS drives per-core application queues — jobs
// arrive, execute a bounded instruction budget, finish or depart early,
// and the next queued job takes over the core, at which point the RM
// immediately re-optimises the whole system — with per-application QoS
// relaxation (heterogeneous alpha instead of the single global knob) and
// mid-run QoS-target step changes. A core between jobs idles at its last
// setting with its LLC ways pinned; an arriving job inherits the core's
// setting until its first interval produces statistics.
//
// # Serving architecture
//
// Every consumer above links the library and owns a database in
// process. The serving layer turns that into a shared long-running
// service. Two pieces compose it:
//
// internal/dbstore is the persistent snapshot store: a versioned binary
// format (magic, format version, params hash, checksum, then the
// per-phase simulated corner records) that round-trips a built database
// bit-identically — only the simulated corners are stored, and the
// dense interpolated grid is re-materialised deterministically after a
// load, so a loaded database is indistinguishable from a freshly built
// one. Cold start becomes a file read: the DatabaseSnapshotLoad
// perfbench entry measures the load at well over an order of magnitude
// faster than the equivalent db.Build. Snapshots are integrity-checked
// in layers (magic/version, CRC-64 checksum, structural bounds, params
// hash against the compiled-in suite definition), fuzz-tested to reject
// corrupt input cleanly, and written atomically. Options.SnapshotPath
// plugs the store into Open, System.Snapshot saves one, and cmd/dbgen
// emits (-o) and verifies (-load -verify) them offline.
//
// internal/server + cmd/qosrmd is the HTTP/JSON service over one warm
// database: POST /v1/savings (application mix → energy saving and
// per-app results), POST /v1/scenarios (one declarative scenario,
// synchronous, bit-identical to System.RunScenario — equivalence-
// tested), POST /v1/jobs + GET /v1/jobs/{id} (asynchronous sweep jobs
// over a bounded worker pool, each worker reusing one sim.RunWorkspace
// across every scenario it executes), plus /healthz and a
// Prometheus-style /metrics. Request bodies are size-bounded and
// validated with the same scenario.Validate the library uses;
// cancellation is threaded through the engines (sim.RunCtx,
// sim.RunDynamicCtx, scenario.SweepContext, db.BuildContext), so client
// disconnects and daemon shutdown abandon in-flight simulations
// promptly. System.NewServer embeds the same server in any process, and
// DialService returns the matching client.
//
// Cluster topology: qosrmd nodes are peers, not replicas — each owns
// its own database snapshot, queue and journal. There is no leader and
// no shared state; membership is dynamic. The seed addresses a node
// boots with (qosrmd -peers / -join, ServerOptions.Peers) only
// bootstrap a gossip protocol (internal/cluster): every gossip interval
// a node push-pulls its full member list — stable node ID, advertised
// address, incarnation, liveness state, database params hash — with
// every address it tracks over POST /v1/cluster, so nodes discover the
// rest of the cluster transitively and two nodes that never seeded each
// other still forward to one another. A SWIM-lite failure detector
// drives liveness: a member whose exchange fails goes alive → suspect,
// a further miss after the suspect window confirms it dead, and dead
// peers leave every forwarding rotation within seconds while remaining
// probed so a rejoin or a healed partition is noticed. Refutation is
// incarnation-based, exactly SWIM's: a node that learns it is rumored
// dead bumps its incarnation past the claim and re-asserts itself, so
// a crashed node rebooting under the same -node-id readmits itself with
// no restarts anywhere else. A joining node with no usable snapshot on
// disk fetches one from a live member (GET /v1/snapshot), verifies it
// end to end with the dbstore loader — magic, version, CRC, params hash
// against its own binary — persists it, and boots warm; a params-hash
// mismatch refuses the join, and gossip refuses mismatched nodes with
// 409 cluster_mismatch, so a cluster never mixes database builds.
// internal/loadgen and cmd/loadgen provide the matching open-loop load
// harness (fixed arrival rate, vegeta-style), and the committed BENCH
// reports embed a single-node vs two-node comparison at the same
// saturating load.
//
// # Observability architecture
//
// The serving layer is observable on three axes — live event streams,
// latency distributions, request tracing — all built on internal/obs,
// a dependency-free leaf shared by the server and the load generator.
//
// Event streaming: GET /v1/jobs/{id}/events tails a running sweep
// job's interval-boundary trace live — the same sim.Event feed a
// SimConfig.Trace callback sees in process, one frame per interval
// boundary (time, core, benchmark, phase, and the chosen frequency /
// way allocation), framed as NDJSON by default or SSE when Accept
// names text/event-stream, ending with a terminal "done" / "failed" /
// "expired" frame. The feed decouples through a bounded per-job ring
// buffer (ServerOptions.EventBuffer, qosrmd -event-buffer) that
// overwrites oldest on overrun: the engine's publish path never
// blocks and never allocates — the per-spec event shell and the
// ring slots' backing arrays are reused, pinned by an allocs/op test
// — so a stalled, slow or absent subscriber costs the simulation
// nothing, and every frame carries a cumulative "dropped" count plus
// a sequence number so a consumer knows exactly what it missed.
// Client.JobEvents returns the matching iterator (the stream escapes
// the client's per-request timeout; cancel its context to stop), and
// examples/service-client tails a live sweep with it.
//
// Latency histograms: /metrics exposes Prometheus-native histograms —
// per-route HTTP request duration, job queue wait, job execution,
// forward RTT, gossip exchange and peer probe — built on a lock-free
// fixed-layout histogram (obs.Histogram: power-of-two nanosecond
// buckets from ~1µs to ~69s, three atomic adds per observation, safe
// for concurrent writers without labels-map machinery). The load
// generator records client-side latency into the same bucket layout,
// so its p50/p90/p99 compare bucket-for-bucket with the server-side
// view of the same run, and JobStatus carries the per-job
// submitted→started→finished timeline. obs.LintExposition validates
// the whole exposition format — every family typed, counters ending
// _total, no duplicate series, histogram buckets cumulative with a
// +Inf terminator — a test scrapes the live server through it, and
// cmd/metricslint pipes any scrape through the same linter in CI.
//
// Request tracing: every request gets an X-Qosrm-Request-Id (minted
// at ingress when absent, echoed in the response, propagated verbatim
// across cluster forwards), and a structured slog access log
// (ServerOptions.Logger; qosrmd -log-level / -log-format) records
// route, method, status, duration, request id, node id and job id per
// request — off by default (slog.DiscardHandler), and the hot paths
// guard on Logger.Enabled so disabled logging costs nothing. qosrmd
// -pprof mounts net/http/pprof under /debug/pprof/ for on-demand
// CPU/heap profiles, bypassing the route metrics so profiling traffic
// never skews the histograms.
//
// # Reliability architecture
//
// The serving layer is crash-safe end to end; three mechanisms compose
// it.
//
// Journal (internal/jobstore): an append-only, CRC-framed job journal
// reusing the dbstore envelope idiom — a magic/version header, then
// [length, CRC-64, JSON payload] frames, fsynced per append, rotated
// by atomic rename on compaction. Four event types record a job's
// lifecycle: submit (specs + idempotency key), start, finish (report
// or error), expire. The submit event is appended and fsynced before
// the 202 acknowledgement, so every acknowledged job is recoverable; a
// failed append refuses the submission (500, reason "journal_error")
// rather than promise durability it cannot deliver. On boot the server
// replays the journal: finished scenarios serve their reports straight
// from the log, acknowledged-but-unfinished ones re-enqueue — and
// because the engine is deterministic, the re-run reproduces the
// report bit for bit, so a SIGKILL mid-sweep loses nothing. Loading
// truncates a torn final record (the shape a crash mid-append leaves)
// and stops at the first corrupt frame, keeping the valid prefix;
// FuzzJournalLoad pins that recovery is clean and idempotent. TTL
// expiry journals an expire event and compacts the log down to the
// live jobs.
//
// Failpoints (internal/faultinject): a registry of named injection
// points (jobstore.append, jobstore.compact, server.worker,
// cluster.gossip, server.snapshot, cluster.fetch) armed by tests or
// the QOSRM_FAILPOINTS environment variable with specs like "error*2",
// "stall:10ms", "panic", each optionally counted or probabilistic.
// Worker execution converts injected (and real) panics into scenario
// errors, retries transient failures a bounded number of times
// (ServerOptions.JobRetries), and the chaos test drives dozens of
// random kill/restart cycles against one journal asserting no job is
// ever lost or duplicated. The cluster chaos drill raises that to
// three gossiping journaled nodes — a SIGKILL-style kill mid-wave with
// a journal reboot, a network partition and heal, a burst of dropped
// gossip — asserting membership reconverges and every accepted job
// still resolves exactly once with reports bit-identical to an
// uninterrupted run.
//
// Hardened edge: POST /v1/jobs honours an Idempotency-Key header —
// keys persist in the journal, so a retried submit returns the
// existing job even across a server restart. Rejections carry a
// machine-readable "reason" ("batch_too_large" permanent vs
// "queue_full"/"shutting_down" transient vs "rate_limited"), 503s and
// 429s advertise Retry-After, per-client token-bucket rate limiting is
// available via ServerOptions.RatePerSec, and /healthz degrades to
// "degraded" when the queue nears capacity. The client (DialService)
// retries transient failures — connection refused/reset, 429, 502/503/
// 504 — with exponential backoff and jitter, honours Retry-After,
// attaches a fresh idempotency key to every SubmitSweep, and WaitJob
// polls with jittered backoff instead of a fixed interval. The journal
// and edge counters (qosrmd_journal_replays_total,
// qosrmd_requests_shed_total, qosrmd_scenarios_retried_total, worker
// panics, idempotent replays, compactions) surface at /metrics.
//
// Peer forwarding: a cluster-mode node that would reject a sweep
// submission with queue_full instead offers it to the least-loaded
// live member of its gossip rotation — candidates are ranked by the
// Queued/QueueDepth occupancy their /healthz reports (probed
// concurrently, single-flighted and briefly cached, so a stalled peer
// never blocks ranking the others and a submit storm does not become a
// healthz storm), suspect members rank after alive ones, dead members
// never appear — and answers the caller with the member's job handle,
// the admitting node's base URL recorded in the status's "origin"
// field. The semantics are deliberately narrow. Ownership: the job
// belongs entirely to the origin node — it is journaled there before
// the 202, polled there (Client.At(origin)), and recovered from that
// node's journal after a crash; the forwarding node keeps only a
// key→origin memo that expires with the job TTL. Idempotency: the
// caller's Idempotency-Key travels verbatim with the forward, so a
// retried submit resolves to the same job through either node — the
// forwarder answers from its memo (refreshing the status from the
// origin when reachable), the origin from its own persisted key map.
// Loops: the X-Qosrm-Forward-Trail header names every node a forward
// has visited; each hop appends its node ID, ranking excludes trail
// members, and a node only forwards while the trail is shorter than
// its ForwardHops budget (default 3) — so multi-hop forwarding
// terminates in any topology without revisiting a node, and a fully
// saturated cluster answers an honest queue_full 503 instead of
// bouncing the batch between nodes. Forwarding clients do not retry
// internally — trying the next peer, then failing over to the 503, is
// the retry policy. The forwarding and membership counters surface at
// /metrics (qosrmd_jobs_forwarded_total,
// qosrmd_jobs_forward_received_total, qosrmd_jobs_forward_failed_total,
// qosrmd_cluster_peers, qosrmd_cluster_members_{alive,suspect,dead},
// qosrmd_cluster_exchanges_total, qosrmd_cluster_probe_failures_total,
// qosrmd_cluster_refutations_total, qosrmd_snapshots_served_total).
//
// internal/scenario layers a JSON-loadable specification on top
// (ScenarioSpec): application queues by name, arrival/departure times,
// per-job alphas and QoS steps, plus the manager/model configuration to
// run under. System.RunScenario executes one spec together with an
// idle-manager twin so the report carries the paper's energy-saving
// metric; System.SweepScenarios batches many specs in parallel over the
// shared database. GenerateChurnWorkloads extends the Section IV-C
// generator to emit multiprogrammed churn schedules from the four
// Figure 1 scenario categories, and cmd/scenarios is the batch CLI over
// scenario files. A static single-job-per-core scenario reproduces
// System.Run bit for bit (equivalence-tested, like every optimized pair
// above).
package qosrm

import (
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/experiments"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/sim"
	"qosrm/internal/trace"
	"qosrm/internal/workload"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving external importers usable names.
type (
	// Benchmark is one application of the synthetic suite.
	Benchmark = bench.Benchmark
	// Phase is one SimPoint-like program phase of a Benchmark.
	Phase = bench.Phase
	// Category is the CS/CI × PS/PI taxonomy cell of an application.
	Category = bench.Category
	// TraceParams parameterises a synthetic instruction stream.
	TraceParams = trace.Params
	// Region is one address region of a synthetic footprint.
	Region = trace.Region
	// Setting is one per-core configuration point (core size, DVFS
	// index, LLC ways).
	Setting = config.Setting
	// CoreSize selects the S/M/L adaptive core configuration.
	CoreSize = config.CoreSize
	// RMKind selects a resource manager (Idle, RM1, RM2, RM3).
	RMKind = rm.Kind
	// ModelKind selects an online performance model (Model1..Model3).
	ModelKind = perfmodel.Kind
	// SimConfig configures one co-simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of one co-simulation run.
	SimResult = sim.Result
	// SimEvent is one interval-boundary event (Figure 5).
	SimEvent = sim.Event
	// Workload is a generated application mix.
	Workload = workload.Workload
	// Scenario is one of the four Figure 1 workload scenarios.
	Scenario = workload.Scenario
	// Experiments bundles the paper's table/figure drivers.
	Experiments = experiments.Context
	// DB is the per-(application, phase, setting) simulation database.
	DB = db.DB

	// Dynamic describes a multiprogrammed-churn workload: per-core job
	// queues plus a QoS step schedule.
	Dynamic = sim.Dynamic
	// DynJob is one queued application of a dynamic run.
	DynJob = sim.Job
	// DynQueue is one core's job queue.
	DynQueue = sim.Queue
	// QoSStep is one mid-run QoS-target change.
	QoSStep = sim.QoSStep
	// DynamicResult is the outcome of one dynamic co-simulation.
	DynamicResult = sim.DynamicResult
	// JobResult is the outcome of one queued job.
	JobResult = sim.JobResult
	// ScenarioSpec is the JSON-loadable declarative scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioCore is one core's queue in a scenario spec.
	ScenarioCore = scenario.CoreSpec
	// ScenarioJob is one queued application in a scenario spec.
	ScenarioJob = scenario.JobSpec
	// ScenarioStep is one mid-run QoS change in a scenario spec.
	ScenarioStep = scenario.StepSpec
	// ScenarioReport is the outcome of one scenario run.
	ScenarioReport = scenario.Report
	// ChurnEntry is one queued application of a generated churn
	// schedule.
	ChurnEntry = workload.ChurnEntry
	// ChurnOptions tunes churn generation (arrival process, rate).
	ChurnOptions = workload.ChurnOptions
	// ArrivalProcess selects a churn arrival process.
	ArrivalProcess = workload.ArrivalProcess
	// AllocationPolicy is the pluggable global allocation decision of
	// the resource manager; see Policies for the named registry.
	AllocationPolicy = rm.Policy
)

// Re-exported enumerations.
const (
	SizeS = config.SizeS
	SizeM = config.SizeM
	SizeL = config.SizeL

	Idle = rm.Idle
	RM1  = rm.RM1
	RM2  = rm.RM2
	RM3  = rm.RM3

	Model1 = perfmodel.Model1
	Model2 = perfmodel.Model2
	Model3 = perfmodel.Model3

	CSPS = bench.CSPS
	CSPI = bench.CSPI
	CIPS = bench.CIPS
	CIPI = bench.CIPI

	Scenario1 = workload.Scenario1
	Scenario2 = workload.Scenario2
	Scenario3 = workload.Scenario3
	Scenario4 = workload.Scenario4

	ArrivalStaggered = workload.ArrivalStaggered
	ArrivalPoisson   = workload.ArrivalPoisson
	ArrivalDiurnal   = workload.ArrivalDiurnal

	// The named allocation policies (see Policies).
	PolicyModel3 = rm.PolicyModel3
	PolicyGreedy = rm.PolicyGreedy
	PolicyBrute  = rm.PolicyBrute
)

// Policies lists the registered allocation policies, default first.
func Policies() []string { return rm.PolicyNames() }

// Policies lists the allocation policies a system's runs can select
// (the package registry; default first).
func (s *System) Policies() []string { return rm.PolicyNames() }

// NewPolicy instantiates a named allocation policy for direct use of
// the rm layer; the co-simulator normally selects one by name through
// SimConfig.Policy instead.
func NewPolicy(name string) (AllocationPolicy, error) { return rm.NewPolicy(name) }

// PolicySweep expands scenario specs along the allocation-policy axis
// (empty policies defaults to the full registry), names suffixed
// "+<policy>" — the input for a policy shoot-out on identical
// workloads.
func PolicySweep(specs []ScenarioSpec, policies []string) ([]ScenarioSpec, error) {
	return scenario.PolicySweep(specs, policies)
}

// Baseline returns the fixed reference setting: M core, 2 GHz, 8 ways.
func Baseline() Setting { return config.Baseline() }

// Suite returns the 27-application synthetic benchmark suite.
func Suite() []*Benchmark { return bench.Suite() }

// BenchmarkByName looks an application up by its SPEC-style name.
func BenchmarkByName(name string) (*Benchmark, error) { return bench.ByName(name) }

// MustBenchmark is BenchmarkByName panicking on unknown names; it is
// meant for examples and tests with literal names.
func MustBenchmark(name string) *Benchmark {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// GenerateWorkloads produces count n-core scenario workloads
// deterministically from seed (Section IV-C).
func GenerateWorkloads(s Scenario, cores, count int, seed int64) ([]Workload, error) {
	return workload.Generate(s, cores, count, seed)
}

// GenerateChurnWorkloads produces an n-core multiprogrammed churn
// schedule for the scenario — depth waves of applications per core with
// staggered arrivals, bounded work and per-app QoS relaxations —
// deterministically from seed. ChurnScenario turns the result into a
// runnable spec.
func GenerateChurnWorkloads(s Scenario, cores, depth int, seed int64) ([][]ChurnEntry, error) {
	return workload.GenerateChurn(s, cores, depth, seed)
}

// GenerateChurnWorkloadsOpts is GenerateChurnWorkloads with a
// selectable arrival process (staggered waves, Poisson, diurnal) and
// rate, for trace-like load instead of the wave schedule.
func GenerateChurnWorkloadsOpts(s Scenario, cores, depth int, seed int64, opt ChurnOptions) ([][]ChurnEntry, error) {
	return workload.GenerateChurnOpts(s, cores, depth, seed, opt)
}

// ParseArrivalProcess resolves an arrival-process name ("staggered",
// "poisson", "diurnal"; empty defaults to staggered).
func ParseArrivalProcess(name string) (ArrivalProcess, error) {
	return workload.ParseArrivalProcess(name)
}

// ChurnScenario converts a generated churn schedule into a runnable
// scenario spec whose arrivals span horizonNs.
func ChurnScenario(name string, churn [][]ChurnEntry, horizonNs float64) ScenarioSpec {
	return scenario.FromChurn(name, churn, horizonNs)
}

// LoadScenarios parses a scenario file: one spec object or an array.
func LoadScenarios(path string) ([]ScenarioSpec, error) {
	return scenario.LoadFile(path)
}

// Options configures Open.
type Options struct {
	// SnapshotPath caches the database in the versioned binary snapshot
	// format (internal/dbstore) — the same files cmd/dbgen emits and
	// cmd/qosrmd boots from. A valid snapshot covering the requested
	// benchmarks at the requested trace length and warmup is loaded
	// (bit-identical to a fresh build); otherwise the database is built
	// and the snapshot written back. Empty disables caching.
	SnapshotPath string
	// TraceLen is the measured instruction count per phase (default
	// 65536); Warmup the cache warm-up prefix (default 16384).
	TraceLen int
	Warmup   int
	// Workers bounds build parallelism (default GOMAXPROCS).
	Workers int
	// Benchmarks restricts the database to a subset of the suite
	// (default: the full suite).
	Benchmarks []*Benchmark
	// Policy is the system-wide default allocation policy ("model3",
	// "greedy" or "brute"; see Policies). It applies whenever a run's
	// SimConfig or a scenario spec does not name a policy itself; empty
	// keeps the paper's optimal reduction ("model3").
	Policy string
}

// System is the top-level handle: a built simulation database plus the
// co-simulator and experiment drivers over it.
type System struct {
	db *db.DB
	// policy is the Options.Policy default threaded into every run that
	// does not select its own.
	policy string
}

// Open builds (or loads from Options.SnapshotPath) the simulation
// database by running the detailed core/cache simulations over every
// benchmark phase and every core size, frequency corner and way
// allocation.
func Open(o Options) (*System, error) {
	if _, err := scenario.ParsePolicy(o.Policy); err != nil {
		return nil, err
	}
	benches := o.Benchmarks
	if len(benches) == 0 {
		benches = bench.Suite()
	}
	d, err := dbstore.LoadOrBuild(o.SnapshotPath, benches, db.Options{
		TraceLen: o.TraceLen,
		Warmup:   o.Warmup,
		Workers:  o.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &System{db: d, policy: o.Policy}, nil
}

// FromDB wraps an already-built database.
func FromDB(d *DB) *System { return &System{db: d} }

// Snapshot writes the system's database to path in the versioned binary
// snapshot format, ready for cmd/qosrmd cold starts (or a later Open
// with Options.SnapshotPath). The write is atomic: a crash mid-save
// never leaves a truncated snapshot behind.
func (s *System) Snapshot(path string) error { return dbstore.Save(path, s.db) }

// DB exposes the underlying database.
func (s *System) DB() *DB { return s.db }

// withPolicy threads the system-wide default policy into a run whose
// configuration does not select one.
func (s *System) withPolicy(cfg SimConfig) SimConfig {
	if cfg.Policy == "" {
		cfg.Policy = s.policy
	}
	return cfg
}

// withSpecPolicy does the same for a scenario spec (on a copy; the
// caller's spec is never mutated).
func (s *System) withSpecPolicy(spec *ScenarioSpec) *ScenarioSpec {
	if spec.Policy != "" || s.policy == "" {
		return spec
	}
	clone := *spec
	clone.Policy = s.policy
	return &clone
}

// Run co-simulates one application per core under cfg.
func (s *System) Run(apps []*Benchmark, cfg SimConfig) (*SimResult, error) {
	return sim.Run(s.db, apps, s.withPolicy(cfg))
}

// RunDynamic co-simulates a multiprogrammed-churn workload under cfg:
// per-core job queues with arrivals and departures, per-app QoS
// relaxation, queue priorities and mid-run QoS steps.
func (s *System) RunDynamic(dyn Dynamic, cfg SimConfig) (*DynamicResult, error) {
	return sim.RunDynamicWS(s.db, dyn, s.withPolicy(cfg), nil)
}

// RunScenario executes one declarative scenario together with its
// idle-manager twin and reports the energy saving, QoS outcome and
// per-job results.
func (s *System) RunScenario(spec *ScenarioSpec) (*ScenarioReport, error) {
	return scenario.Run(s.db, s.withSpecPolicy(spec))
}

// SweepScenarios runs a batch of scenarios in parallel over the shared
// database, bounded by workers (≤ 0 runs one worker per scenario).
// Reports come back in spec order; failures are joined and the
// remaining scenarios still run.
func (s *System) SweepScenarios(specs []ScenarioSpec, workers int) ([]*ScenarioReport, error) {
	if s.policy != "" {
		withDefault := make([]ScenarioSpec, len(specs))
		for i := range specs {
			withDefault[i] = *s.withSpecPolicy(&specs[i])
		}
		specs = withDefault
	}
	return scenario.Sweep(s.db, specs, workers)
}

// Savings runs cfg and the baseline-keeping idle manager on the same
// workload and returns the fractional energy saving along with the
// managed run's result.
func (s *System) Savings(apps []*Benchmark, cfg SimConfig) (float64, *SimResult, error) {
	cfg = s.withPolicy(cfg)
	idleCfg := cfg
	idleCfg.RM = Idle
	idle, err := sim.Run(s.db, apps, idleCfg)
	if err != nil {
		return 0, nil, err
	}
	r, err := sim.Run(s.db, apps, cfg)
	if err != nil {
		return 0, nil, err
	}
	return 1 - r.EnergyJ/idle.EnergyJ, r, nil
}

// Classify measures an application's CS/CI × PS/PI category with the
// Section IV-C rules.
func (s *System) Classify(b *Benchmark) (Category, error) {
	cat, _, err := s.db.Classify(b)
	return cat, err
}

// Experiments returns the paper's table/figure drivers bound to this
// system's database.
func (s *System) Experiments() *Experiments {
	return experiments.NewContext(s.db)
}
