// Package server is the QoS-RM serving layer: an HTTP/JSON service over
// one warm configuration database, so many processes and clients share a
// single build (or snapshot load) instead of each rebuilding it.
//
// Endpoints:
//
//	POST /v1/savings      application mix + manager config → energy
//	                      saving and per-app results (synchronous)
//	POST /v1/scenarios    one scenario.Spec body → scenario.Report
//	                      (synchronous; bit-identical to the in-process
//	                      System.RunScenario, equivalence-tested)
//	POST /v1/jobs         a batch of specs → job id; the batch is swept
//	                      asynchronously by a bounded worker pool, each
//	                      worker reusing one sim.RunWorkspace across all
//	                      scenarios it executes
//	GET  /v1/jobs/{id}    job progress and, once done, the reports
//	GET  /v1/cluster      this node's membership view (anti-entropy pull)
//	POST /v1/cluster      one push-pull gossip exchange: merge the
//	                      sender's view, answer with this node's
//	GET  /v1/snapshot     the database snapshot bytes (dbstore format) —
//	                      how a fresh node joins without a local .qosdb
//	GET  /healthz         liveness + the database the server holds
//	GET  /metrics         Prometheus-style text counters
//
// Request bodies are size-bounded, specs are validated with the same
// scenario.Validate the library uses, synchronous runs are cancelled
// when the client disconnects, and Close aborts in-flight work through
// the lifecycle context threaded into the simulation engines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosrm/internal/api"
	"qosrm/internal/bench"
	"qosrm/internal/cluster"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/jobstore"
	"qosrm/internal/obs"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/sim"
)

// Options configures a Server.
type Options struct {
	// Workers is the job worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-unfinished scenarios
	// across all jobs (default 256). A submission that does not fit is
	// rejected with 503 rather than queued unboundedly.
	QueueDepth int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxApps bounds the core count of one savings request (default 64).
	MaxApps int
	// JobTTL is how long finished (done or failed) jobs stay queryable
	// before the GC loop drops them; a long-lived daemon must not grow
	// its jobs map forever. Default 1 h; negative retains jobs for the
	// server's lifetime (the pre-TTL behaviour). Unfinished jobs are
	// never collected.
	JobTTL time.Duration
	// JournalPath enables the durable job journal (internal/jobstore):
	// submissions are journaled before they are acknowledged, scenario
	// outcomes as they complete, and New replays the journal — pending
	// scenarios re-enqueue, finished reports are served from the log —
	// so a crashed or redeployed daemon resumes where it stopped.
	// Empty keeps job state purely in memory.
	JournalPath string
	// JobRetries is how many times a failed scenario is retried before
	// its error is recorded (transient faults — an injected failpoint,
	// a panicking worker — should not fail a whole sweep). Default 2;
	// negative disables retries.
	JobRetries int
	// RatePerSec enables per-client token-bucket rate limiting of the
	// /v1 endpoints at this sustained rate; 0 disables limiting.
	// Clients are keyed by remote host. Limited requests get 429 with a
	// Retry-After header.
	RatePerSec float64
	// RateBurst is the token-bucket depth (default: one second's worth
	// of RatePerSec).
	RateBurst int
	// Peers seeds cluster mode: base URLs of other qosrmd nodes (e.g.
	// "http://b:8423"). Seeds bootstrap the gossip membership — once a
	// seed answers, discovery takes over and the live rotation is
	// maintained by the failure detector, so the list need not be
	// complete or stay correct. A submit this node would reject with
	// queue_full is forwarded to the least-loaded live member (ranked
	// by the /healthz Queued/QueueDepth fields) instead; the caller
	// gets the member's job handle with JobStatus.Origin set, and the
	// member's journal owns the job. Empty runs standalone.
	Peers []string
	// NodeID is this node's stable cluster identity, carried in gossip
	// and in the forwarding trail (default: random per boot). Give a
	// long-lived node a fixed ID so a restart at the same address is
	// recognised as a rejoin rather than a new node.
	NodeID string
	// Advertise is the base URL other cluster nodes reach this node at
	// (e.g. "http://a:8423"). An advertising node introduces itself
	// into the membership it joins; without it the node still probes,
	// forwards and serves, but never enters a peer's rotation.
	Advertise string
	// GossipInterval is the anti-entropy cadence: every interval the
	// node exchanges member lists with each address it tracks (dead
	// ones included, which is how rejoins are noticed). Default 1 s;
	// negative disables the gossip loop entirely.
	GossipInterval time.Duration
	// SuspectTimeout is the failure detector's confirmation window: a
	// member goes suspect on its first missed probe and dead when a
	// further probe fails at least this long after the suspicion
	// (default 3 s). Dead members leave the forwarding rotation.
	SuspectTimeout time.Duration
	// ForwardHops bounds forwarding chains through the cluster: a
	// request whose X-Qosrm-Forward-Trail already names this many nodes
	// is rejected with queue_full instead of forwarded again. The trail
	// also excludes every visited node from the rotation, so forwarding
	// terminates in any topology without revisiting a node. Default 3;
	// negative disables forwarding.
	ForwardHops int
	// ForwardTimeout bounds one forwarding attempt end to end — peer
	// health polls plus the forwarded submit (default 5 s).
	ForwardTimeout time.Duration
	// Logger receives the structured access log (one record per request:
	// route, status, duration, request id, node id, job id) and server
	// lifecycle notes. Nil discards everything — embedded servers and
	// tests stay silent, and the disabled-level check keeps the request
	// path free of logging allocations.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and belong behind an
	// operator's explicit flag.
	EnablePprof bool
	// EventBuffer is the per-job interval-event ring capacity backing
	// GET /v1/jobs/{id}/events (default 256). The ring overwrites its
	// oldest events when a subscriber lags — bounded memory per job, an
	// explicit dropped count on the stream, and the engine never waits.
	EventBuffer int

	// clock overrides the server's time source; nil means time.Now.
	// Unexported: only in-package tests drive the job GC and the
	// failure detector with a fake clock (it must be set before New
	// starts the background loops — replacing the clock on a live
	// server would race with them).
	clock func() time.Time
	// transport overrides the HTTP transport of the cluster-facing
	// clients (gossip exchanges, health probes, forwards, origin
	// polls). Unexported: the chaos tests inject network partitions
	// through it.
	transport http.RoundTripper
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxApps <= 0 {
		o.MaxApps = 64
	}
	if o.JobTTL == 0 {
		o.JobTTL = time.Hour
	}
	switch {
	case o.JobRetries == 0:
		o.JobRetries = 2
	case o.JobRetries < 0:
		o.JobRetries = 0
	}
	switch {
	case o.ForwardHops == 0:
		o.ForwardHops = 3
	case o.ForwardHops < 0:
		o.ForwardHops = 0
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 5 * time.Second
	}
	if o.GossipInterval == 0 {
		o.GossipInterval = time.Second
	}
	if o.NodeID == "" {
		o.NodeID = cluster.NewID()
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 256
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.clock == nil {
		o.clock = time.Now
	}
}

// metrics are the server's monotonic counters, exposed at /metrics.
type metrics struct {
	requests      [routeCount]atomic.Int64
	errors        atomic.Int64
	specsQueued   atomic.Int64
	specsRun      atomic.Int64
	specsFailed   atomic.Int64
	specsRetried  atomic.Int64
	jobsSubmitted atomic.Int64
	jobsFinished  atomic.Int64
	jobsExpired   atomic.Int64
	savingsNs     atomic.Int64
	scenariosNs   atomic.Int64
	// Reliability counters: requests shed at the edge (rate limit +
	// transient 503s), submissions deduplicated by idempotency key,
	// worker panics converted to scenario errors, and the journal's
	// replay/append/compaction activity.
	requestsShed      atomic.Int64
	idempotentReplays atomic.Int64
	workerPanics      atomic.Int64
	journalReplays    atomic.Int64
	journalErrors     atomic.Int64
	journalCompacts   atomic.Int64
	// Cluster counters: batches this node pushed to a peer, batches it
	// admitted on behalf of a peer, and forwarding attempts that found
	// no peer able to take the overflow (the caller then got the
	// honest queue_full 503).
	jobsForwarded   atomic.Int64
	forwardReceived atomic.Int64
	forwardFailed   atomic.Int64
	// Membership counters: successful anti-entropy exchanges, probes
	// the failure detector counted as missed, incarnation bumps this
	// node made to refute a false death rumor about itself, and
	// snapshots streamed to joining nodes.
	clusterExchanges     atomic.Int64
	clusterProbeFailures atomic.Int64
	clusterRefutations   atomic.Int64
	snapshotsServed      atomic.Int64
	// policyRuns counts managed runs per allocation policy, indexed as
	// policyNames — the per-policy serving metric. Sized from the
	// registry at server construction, so new policies get a slot
	// automatically.
	policyRuns []atomic.Int64
	// Latency distributions (lock-free log2-bucket histograms, exposed
	// in Prometheus histogram exposition): HTTP request duration per
	// route, job queue wait (submit → first worker pickup) and execution
	// (one scenario run), forward round-trip, gossip exchange and peer
	// health-probe durations.
	httpDur        [routeCount]obs.Histogram
	jobQueueWait   obs.Histogram
	jobExec        obs.Histogram
	forwardRTT     obs.Histogram
	gossipExchange obs.Histogram
	peerProbe      obs.Histogram
}

// policyNames snapshots the policy registry once; countPolicy and the
// /metrics renderer index policyRuns by this slice.
var policyNames = rm.PolicyNames()

// countPolicy records one managed run under its allocation policy.
func (m *metrics) countPolicy(name string) {
	for i, n := range policyNames {
		if n == name {
			m.policyRuns[i].Add(1)
			return
		}
	}
}

// route indexes the per-endpoint request counters.
type route int

const (
	routeSavings route = iota
	routeScenarios
	routeJobs
	routeJobGet
	routeJobEvents
	routeCluster
	routeSnapshot
	routeHealth
	routeMetrics
	routeCount
)

var routeNames = [routeCount]string{
	"/v1/savings", "/v1/scenarios", "/v1/jobs", "/v1/jobs/{id}",
	"/v1/jobs/{id}/events",
	"/v1/cluster", "/v1/snapshot", "/healthz", "/metrics",
}

// Server serves the QoS-RM API over one built database.
type Server struct {
	db    *db.DB
	opts  Options
	start time.Time
	mux   *http.ServeMux
	// now is the server's clock (Options.clock, default time.Now);
	// tests inject a fake one to drive the job GC deterministically.
	now func() time.Time
	// journal is the durable job log (nil without Options.JournalPath);
	// limiter the per-client token bucket (nil without RatePerSec).
	journal *jobstore.Journal
	limiter *rateLimiter
	// cluster is this node's membership view (always present — a node
	// with no seeds just tracks nobody until one joins it), forwarder
	// the cluster-facing client pool and health cache, paramsHash the
	// hex dbstore fingerprint of the database this node serves.
	cluster    *cluster.Membership
	forwarder  *forwarder
	paramsHash string
	// log is Options.Logger (a discard logger when none was given).
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan workItem

	mu     sync.Mutex
	closed bool
	queued int
	jobSeq int64
	jobs   map[string]*job
	// keys maps idempotency keys to job ids; entries live exactly as
	// long as their job (expiry drops both). forwardedKeys maps keys
	// this node forwarded to a peer onto the peer's job handle, so a
	// retried submit resolves to the same job through either node;
	// entries age out with the job TTL.
	keys          map[string]string
	forwardedKeys map[string]*forwardedRef

	// workspaces pools *sim.RunWorkspace for synchronous scenarios and
	// savings requests, so a request reuses engine state and a reduction
	// arena instead of allocating them.
	workspaces sync.Pool

	metrics metrics
}

// New starts a server over d: the worker pool is running on return,
// and if Options.JournalPath is set the journal has been replayed —
// unfinished scenarios from the previous process are already queued
// again. Callers own the lifecycle and must Close it.
func New(d *db.DB, opts Options) (*Server, error) {
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:            d,
		opts:          opts,
		start:         time.Now(),
		now:           opts.clock,
		ctx:           ctx,
		cancel:        cancel,
		jobs:          make(map[string]*job),
		keys:          make(map[string]string),
		forwardedKeys: make(map[string]*forwardedRef),
		log:           opts.Logger,
		workspaces:    sync.Pool{New: func() any { return new(sim.RunWorkspace) }},
	}
	s.metrics.policyRuns = make([]atomic.Int64, len(policyNames))
	if opts.RatePerSec > 0 {
		s.limiter = newRateLimiter(opts.RatePerSec, opts.RateBurst, s.now)
	}
	s.paramsHash = fmt.Sprintf("%016x", dbstore.ParamsHash(d))
	s.cluster = cluster.New(cluster.Config{
		ID:             opts.NodeID,
		Addr:           opts.Advertise,
		ParamsHash:     s.paramsHash,
		Seeds:          opts.Peers,
		SuspectTimeout: opts.SuspectTimeout,
		Clock:          s.now,
	})
	s.forwarder = newForwarder(s)

	var pending []workItem
	if opts.JournalPath != "" {
		journal, info, err := jobstore.Open(opts.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = journal
		pending = s.replayJournal(info.Events)
	}
	// The queue must hold every replayed pending scenario even when the
	// previous process ran with a deeper queue; new submissions are
	// still admitted against Options.QueueDepth only.
	depth := opts.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	s.queue = make(chan workItem, depth)
	for _, it := range pending {
		s.queue <- it
	}
	s.queued = len(pending)

	s.mux = http.NewServeMux()
	s.handle("POST /v1/savings", routeSavings, true, s.handleSavings)
	s.handle("POST /v1/scenarios", routeScenarios, true, s.handleScenario)
	s.handle("POST /v1/jobs", routeJobs, true, s.handleJobSubmit)
	s.handle("GET /v1/jobs/{id}", routeJobGet, true, s.handleJobGet)
	s.handle("GET /v1/jobs/{id}/events", routeJobEvents, true, s.handleJobEvents)
	// The cluster endpoints skip the per-client limiter: gossip from N
	// peers must not drain a forwarding client's token budget, and a
	// joining node's snapshot fetch is one request, not a rate.
	s.handle("GET /v1/cluster", routeCluster, false, s.handleClusterGet)
	s.handle("POST /v1/cluster", routeCluster, false, s.handleClusterPost)
	s.handle("GET /v1/snapshot", routeSnapshot, false, s.handleSnapshot)
	s.handle("GET /healthz", routeHealth, false, s.handleHealth)
	s.handle("GET /metrics", routeMetrics, false, s.handleMetrics)
	if opts.EnablePprof {
		// Raw pprof handlers: they manage their own content types and
		// durations, and profiling traffic must not skew the route
		// histograms.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.JobTTL > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	if opts.GossipInterval > 0 {
		s.wg.Add(1)
		go s.gossipLoop()
	}
	return s, nil
}

// gcLoop periodically expires finished jobs older than JobTTL. The
// sweep itself is gcFinishedJobs, unit-testable with a fake clock.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	// Sweep a few times per TTL; clamp so tiny TTLs don't spin and huge
	// ones still notice restarts of the config within a minute.
	interval := s.opts.JobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.gcFinishedJobs(s.now())
			s.forwarder.sweep()
		}
	}
}

// gcFinishedJobs drops jobs that finished more than JobTTL before now
// and reports how many it expired. Unfinished jobs are never touched:
// a job still queued or running stays queryable however old it is.
// With a journal, each expiry is journaled and the journal is then
// compacted to the surviving live set, so the log's size tracks the
// live jobs instead of the server's full history.
func (s *Server) gcFinishedJobs(now time.Time) int {
	ttl := s.opts.JobTTL
	if ttl <= 0 {
		return 0
	}
	expired := 0
	s.mu.Lock()
	// Forwarded-key records age out on the same clock as local jobs;
	// the origin node's own TTL GC owns the job itself.
	for key, ref := range s.forwardedKeys {
		if now.Sub(ref.at) > ttl {
			delete(s.forwardedKeys, key)
		}
	}
	for id, j := range s.jobs {
		if fin, ok := j.finishedTime(); ok && now.Sub(fin) > ttl {
			delete(s.jobs, id)
			if j.key != "" {
				delete(s.keys, j.key)
			}
			// End any event stream still attached. Normally a no-op —
			// completion already closed the ring — but a subscriber that
			// consumed the terminal frame slowly, or a ring replayed
			// unfinished from the journal and then expired, gets an
			// explicit "expired" instead of a silent hang.
			j.events.Close(obs.Terminal{Kind: obs.TerminalExpired})
			expired++
			if s.journal != nil {
				if err := s.journal.Append(jobstore.Event{Type: jobstore.EventExpire, Job: id}); err != nil {
					s.metrics.journalErrors.Add(1)
				}
			}
		}
	}
	s.mu.Unlock()
	if expired > 0 {
		s.metrics.jobsExpired.Add(int64(expired))
		s.compactJournal()
	}
	return expired
}

// compactJournal rewrites the journal to the current live jobs. A
// finish journaled concurrently with the rewrite can be dropped by it;
// that scenario simply re-runs after a restart (deterministically, to
// the identical report), so compaction never needs to block the
// workers.
func (s *Server) compactJournal() {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	var events []jobstore.Event
	for _, j := range live {
		events = append(events, j.journalEvents()...)
	}
	if err := s.journal.Compact(events); err != nil {
		s.metrics.journalErrors.Add(1)
		return
	}
	s.metrics.journalCompacts.Add(1)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting jobs, cancels in-flight simulations through the
// lifecycle context and waits for the worker pool to exit. Scenarios
// still queued are abandoned in memory; with a journal they stay
// pending on disk and the next boot re-enqueues them. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
}

// accessInfo is the per-request mutable record handlers enrich before
// the access log line is emitted (currently: the job id a request
// resolved to or created).
type accessInfo struct{ job string }

type accessInfoKey struct{}

// setLogJob records the request's job id for the access log; a no-op
// outside an instrumented request.
func setLogJob(ctx context.Context, id string) {
	if info, _ := ctx.Value(accessInfoKey{}).(*accessInfo); info != nil {
		info.job = id
	}
}

// statusWriter captures the response status for the route histogram and
// access log. It passes Flush through (the event stream needs it) and
// Unwrap keeps http.ResponseController working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// newRequestID is 16 hex chars of process-local randomness: enough to
// tie one request's hops together across the cluster's logs, and not a
// security token.
func newRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// handle registers one pattern with the instrumentation wrapper: the
// per-route request counter and duration histogram, request-id ingress
// (accept the caller's X-Qosrm-Request-Id or mint one; echo it on every
// response and carry it in the context so forwarded requests propagate
// it), the structured access log, and — on limited routes — the
// per-client token bucket when one is configured.
func (s *Server) handle(pattern string, rt route, limited bool, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.metrics.requests[rt].Add(1)
		reqID := r.Header.Get(api.RequestIDHeader)
		if reqID == "" {
			reqID = newRequestID()
		}
		// Echo before the handler runs so every response — error
		// envelopes included — carries the id.
		w.Header().Set(api.RequestIDHeader, reqID)
		info := &accessInfo{}
		ctx := api.WithRequestID(context.WithValue(r.Context(), accessInfoKey{}, info), reqID)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		serve := true
		if limited && s.limiter != nil {
			client := r.RemoteAddr
			if host, _, err := net.SplitHostPort(client); err == nil {
				client = host
			}
			if !s.limiter.allow(client) {
				serve = false
				s.metrics.requestsShed.Add(1)
				sw.Header().Set("Retry-After", strconv.Itoa(int(s.limiter.retryAfter().Seconds())))
				s.failReason(sw, http.StatusTooManyRequests, ReasonRateLimited,
					"client %s exceeds %g requests/s", client, s.opts.RatePerSec)
			}
		}
		if serve {
			h(sw, r)
		}
		dur := time.Since(t0)
		s.metrics.httpDur[rt].Observe(dur)
		if s.log.Enabled(ctx, slog.LevelInfo) {
			s.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("route", routeNames[rt]),
				slog.String("method", r.Method),
				slog.Int("status", sw.status),
				slog.Duration("dur", dur),
				slog.String("request_id", reqID),
				slog.String("node", s.opts.NodeID),
				slog.String("job", info.job),
			)
		}
	})
}

// fail writes the JSON error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failReason(w, status, "", format, args...)
}

// failReason is fail carrying a machine-readable rejection reason (see
// the Reason* constants). Transient rejections (503) advertise a
// Retry-After so well-behaved clients back off instead of hammering.
func (s *Server) failReason(w http.ResponseWriter, status int, reason, format string, args ...any) {
	s.metrics.errors.Add(1)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Reason: reason})
}

// writeJSON writes a 200 response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes a JSON response with an explicit status. The
// Content-Type must be set before WriteHeader freezes the headers.
func (s *Server) writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.metrics.errors.Add(1)
	}
}

// readJSON decodes a size-bounded request body, distinguishing
// oversized bodies (413) from malformed ones (400). Unknown fields are
// rejected so misspelled knobs fail loudly instead of silently running
// a default configuration.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.opts.MaxBodyBytes)
		} else {
			s.fail(w, http.StatusBadRequest, "invalid request body: %v", err)
		}
		return false
	}
	if dec.More() {
		s.fail(w, http.StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

// handleSavings evaluates one application mix: the configured manager
// against its idle twin, both cancelled if the client disconnects.
func (s *Server) handleSavings(w http.ResponseWriter, r *http.Request) {
	var req SavingsRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Apps) == 0 {
		s.fail(w, http.StatusBadRequest, "no applications")
		return
	}
	if len(req.Apps) > s.opts.MaxApps {
		s.fail(w, http.StatusBadRequest, "%d applications exceed the %d-core limit", len(req.Apps), s.opts.MaxApps)
		return
	}
	apps := make([]*bench.Benchmark, len(req.Apps))
	for i, name := range req.Apps {
		b, err := bench.ByName(name)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		if s.db.NumPhases(name) == 0 {
			s.fail(w, http.StatusBadRequest, "database has no data for %q", name)
			return
		}
		apps[i] = b
	}
	kind, err := scenario.ParseRM(req.RM)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, err := scenario.ParseModel(req.Model)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	policy, err := scenario.ParsePolicy(req.Policy)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Alpha < 0 || req.Scale < 0 || req.Interval < 0 {
		s.fail(w, http.StatusBadRequest, "negative configuration value")
		return
	}
	cfg := sim.Config{
		RM:               kind,
		Model:            model,
		Perfect:          req.Perfect,
		Alpha:            req.Alpha,
		Scale:            req.Scale,
		Interval:         req.Interval,
		DisableOverheads: req.DisableOverheads,
		Policy:           policy,
	}
	t0 := time.Now()
	idleCfg := cfg
	idleCfg.RM = rm.Idle
	ws := s.workspaces.Get().(*sim.RunWorkspace)
	idle, err := sim.RunCtx(r.Context(), s.db, apps, idleCfg, ws)
	// An idle request is its own twin (the same shortcut scenario.Run
	// takes): saving is zero by construction.
	managed := idle
	if err == nil && kind != rm.Idle {
		managed, err = sim.RunCtx(r.Context(), s.db, apps, cfg, ws)
	}
	s.workspaces.Put(ws)
	if err != nil {
		s.runError(w, r, err)
		return
	}
	s.metrics.savingsNs.Add(time.Since(t0).Nanoseconds())
	s.metrics.countPolicy(policy)
	s.writeJSON(w, &SavingsResponse{
		Policy:        policy,
		Saving:        1 - managed.EnergyJ/idle.EnergyJ,
		EnergyJ:       managed.EnergyJ,
		IdleEnergyJ:   idle.EnergyJ,
		TimeNs:        managed.TimeNs,
		RMCalled:      managed.RMCalled,
		ViolationRate: managed.ViolationRate(),
		Apps:          managed.Apps,
	})
}

// handleScenario runs one declarative scenario synchronously.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var spec scenario.Spec
	if !s.readJSON(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if name, ok := s.uncovered(&spec); !ok {
		s.fail(w, http.StatusBadRequest, "database has no data for %q", name)
		return
	}
	t0 := time.Now()
	ws := s.workspaces.Get().(*sim.RunWorkspace)
	rep, err := scenario.RunCtx(r.Context(), s.db, &spec, ws)
	s.workspaces.Put(ws)
	if err != nil {
		s.runError(w, r, err)
		return
	}
	s.metrics.scenariosNs.Add(time.Since(t0).Nanoseconds())
	s.metrics.countPolicy(rep.Policy)
	s.writeJSON(w, rep)
}

// handleJobSubmit queues an asynchronous sweep. An Idempotency-Key
// header makes the submit safe to retry: a key already seen (in this
// process or replayed from the journal) returns the existing job
// instead of queuing a duplicate — and a key this node forwarded to a
// cluster peer resolves to the peer's job, so the dedupe contract
// holds through either node. When the local queue is full and peers
// are configured, the batch is forwarded to the least-loaded live peer
// instead of rejected.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get(api.IdempotencyKeyHeader)
	if len(key) > 256 {
		s.fail(w, http.StatusBadRequest, "Idempotency-Key exceeds 256 bytes")
		return
	}
	var req JobRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Specs) == 0 {
		s.fail(w, http.StatusBadRequest, "no scenarios")
		return
	}
	if len(req.Specs) > s.opts.QueueDepth {
		// A batch that exceeds the queue's total capacity can never be
		// admitted, no matter how idle the server is: that is a permanent
		// client error, not a transient 503 worth retrying.
		s.failReason(w, http.StatusBadRequest, ReasonBatchTooLarge,
			"batch of %d scenarios exceeds the queue capacity of %d; split the sweep",
			len(req.Specs), s.opts.QueueDepth)
		return
	}
	// Batch-level validation also rejects duplicate scenario names: the
	// job's reports are consumed keyed by name, where a duplicate would
	// silently shadow its twin.
	if err := scenario.ValidateSpecs(req.Specs); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i := range req.Specs {
		if name, ok := s.uncovered(&req.Specs[i]); !ok {
			s.fail(w, http.StatusBadRequest, "spec %d: database has no data for %q", i, name)
			return
		}
	}
	if st, ok := s.forwardedByKey(r.Context(), key); ok {
		s.metrics.idempotentReplays.Add(1)
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
		s.writeJSONStatus(w, http.StatusAccepted, st)
		return
	}
	trail := forwardTrail(r)
	j, replayed, err := s.submit(req.Specs, key)
	switch {
	case errors.Is(err, errJournal):
		// The submission could not be made durable, so it was not
		// admitted: acknowledging it would promise crash-safety the
		// journal cannot deliver.
		s.failReason(w, http.StatusInternalServerError, ReasonJournal, "%v", err)
		return
	case errors.Is(err, errClosed):
		s.failReason(w, http.StatusServiceUnavailable, ReasonShuttingDown, "%v", err)
		return
	case err != nil:
		// Queue full: in cluster mode, hand the batch to a peer before
		// giving up. A forward that finds no taker (every peer dead,
		// saturated, or already on the trail) falls through to the
		// honest 503.
		if st, ok := s.tryForward(r.Context(), req.Specs, key, trail); ok {
			s.writeJSONStatus(w, http.StatusAccepted, st)
			return
		}
		s.failReason(w, http.StatusServiceUnavailable, ReasonQueueFull, "%v", err)
		return
	}
	if replayed {
		s.metrics.idempotentReplays.Add(1)
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
	} else if len(trail) > 0 {
		s.metrics.forwardReceived.Add(1)
	}
	setLogJob(r.Context(), j.id)
	s.writeJSONStatus(w, http.StatusAccepted, j.status())
}

// forwardTrail reads the visited-node trail of a forwarded submit (nil
// when the request came straight from a client). The trail's length is
// the hop count; its entries are excluded from any further forward.
func forwardTrail(r *http.Request) []string {
	v := r.Header.Get(api.ForwardTrailHeader)
	if v == "" {
		return nil
	}
	var trail []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			trail = append(trail, part)
		}
	}
	return trail
}

// handleJobGet reports a job's progress.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setLogJob(r.Context(), id)
	j := s.jobByID(id)
	if j == nil {
		s.fail(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.writeJSON(w, j.status())
}

// handleHealth reports liveness plus what the server is serving. The
// status flips to "degraded" when the scenario queue reaches 90% of
// QueueDepth: submissions are about to bounce with 503s, and a load
// balancer watching /healthz can shift traffic away first.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	phases := 0
	for _, name := range s.db.Benchmarks() {
		phases += s.db.NumPhases(name)
	}
	s.mu.Lock()
	queued := s.queued
	s.mu.Unlock()
	status := HealthOK
	if queued*10 >= s.opts.QueueDepth*9 {
		status = HealthDegraded
	}
	s.writeJSON(w, &Health{
		Status:        status,
		Benchmarks:    len(s.db.Benchmarks()),
		Phases:        phases,
		TraceLen:      s.db.TraceLen,
		Workers:       s.opts.Workers,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queued:        queued,
		QueueDepth:    s.opts.QueueDepth,
		Journal:       s.journal != nil,
		Node:          s.opts.NodeID,
		ParamsHash:    s.paramsHash,
		Peers:         len(s.cluster.Rotation()),
	})
}

// handleMetrics renders the Prometheus text exposition: every family
// carries a # TYPE line, counters end in _total, and the latency
// histograms render as _bucket/_sum/_count. The output is kept honest
// by obs.LintExposition in the tests and the CI smoke.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := s.queued
	jobs := len(s.jobs)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gaugeInt := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	gaugeFloat := func(name string, v float64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v)
	}
	seconds := func(name string, ns int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, float64(ns)/1e9)
	}

	fmt.Fprintf(w, "# TYPE qosrmd_requests_total counter\n")
	for rt := route(0); rt < routeCount; rt++ {
		fmt.Fprintf(w, "qosrmd_requests_total{path=%q} %d\n", routeNames[rt], s.metrics.requests[rt].Load())
	}
	counter("qosrmd_request_errors_total", s.metrics.errors.Load())
	counter("qosrmd_jobs_submitted_total", s.metrics.jobsSubmitted.Load())
	counter("qosrmd_jobs_finished_total", s.metrics.jobsFinished.Load())
	counter("qosrmd_jobs_expired_total", s.metrics.jobsExpired.Load())
	gaugeInt("qosrmd_jobs_tracked", int64(jobs))
	gaugeFloat("qosrmd_job_ttl_seconds", s.opts.JobTTL.Seconds())
	fmt.Fprintf(w, "# TYPE qosrmd_policy_runs_total counter\n")
	for i, name := range policyNames {
		fmt.Fprintf(w, "qosrmd_policy_runs_total{policy=%q} %d\n", name, s.metrics.policyRuns[i].Load())
	}
	counter("qosrmd_scenarios_queued_total", s.metrics.specsQueued.Load())
	counter("qosrmd_scenarios_run_total", s.metrics.specsRun.Load())
	counter("qosrmd_scenarios_failed_total", s.metrics.specsFailed.Load())
	counter("qosrmd_scenarios_retried_total", s.metrics.specsRetried.Load())
	gaugeInt("qosrmd_scenario_queue_depth", int64(queued))
	counter("qosrmd_requests_shed_total", s.metrics.requestsShed.Load())
	alive, suspect, dead := s.cluster.Counts()
	gaugeInt("qosrmd_cluster_peers", int64(len(s.cluster.Rotation())))
	gaugeInt("qosrmd_cluster_members_alive", int64(alive))
	gaugeInt("qosrmd_cluster_members_suspect", int64(suspect))
	gaugeInt("qosrmd_cluster_members_dead", int64(dead))
	gaugeInt("qosrmd_cluster_incarnation", int64(s.cluster.Incarnation()))
	counter("qosrmd_cluster_exchanges_total", s.metrics.clusterExchanges.Load())
	counter("qosrmd_cluster_probe_failures_total", s.metrics.clusterProbeFailures.Load())
	counter("qosrmd_cluster_refutations_total", s.metrics.clusterRefutations.Load())
	counter("qosrmd_snapshots_served_total", s.metrics.snapshotsServed.Load())
	counter("qosrmd_jobs_forwarded_total", s.metrics.jobsForwarded.Load())
	counter("qosrmd_jobs_forward_received_total", s.metrics.forwardReceived.Load())
	counter("qosrmd_jobs_forward_failed_total", s.metrics.forwardFailed.Load())
	counter("qosrmd_idempotent_replays_total", s.metrics.idempotentReplays.Load())
	counter("qosrmd_worker_panics_total", s.metrics.workerPanics.Load())
	journalEnabled := int64(0)
	if s.journal != nil {
		journalEnabled = 1
		gaugeInt("qosrmd_journal_records", int64(s.journal.Records()))
		gaugeInt("qosrmd_journal_size_bytes", s.journal.Size())
	}
	gaugeInt("qosrmd_journal_enabled", journalEnabled)
	counter("qosrmd_journal_replays_total", s.metrics.journalReplays.Load())
	counter("qosrmd_journal_errors_total", s.metrics.journalErrors.Load())
	counter("qosrmd_journal_compactions_total", s.metrics.journalCompacts.Load())
	gaugeInt("qosrmd_workers", int64(s.opts.Workers))
	seconds("qosrmd_savings_busy_seconds_total", s.metrics.savingsNs.Load())
	seconds("qosrmd_scenarios_busy_seconds_total", s.metrics.scenariosNs.Load())
	gaugeFloat("qosrmd_uptime_seconds", time.Since(s.start).Seconds())
	gaugeInt("qosrmd_db_benchmarks", int64(len(s.db.Benchmarks())))
	gaugeInt("qosrmd_db_trace_len", int64(s.db.TraceLen))
	curves, computed := sim.CurveStats(s.db)
	gaugeInt("qosrmd_rm_curves", int64(curves))
	counter("qosrmd_rm_curves_computed_total", computed)

	fmt.Fprintf(w, "# TYPE qosrmd_http_request_duration_seconds histogram\n")
	for rt := route(0); rt < routeCount; rt++ {
		s.metrics.httpDur[rt].WriteProm(w, "qosrmd_http_request_duration_seconds",
			fmt.Sprintf("path=%q", routeNames[rt]))
	}
	hist := func(name string, h *obs.Histogram) {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		h.WriteProm(w, name, "")
	}
	hist("qosrmd_job_queue_wait_seconds", &s.metrics.jobQueueWait)
	hist("qosrmd_job_exec_seconds", &s.metrics.jobExec)
	hist("qosrmd_forward_rtt_seconds", &s.metrics.forwardRTT)
	hist("qosrmd_gossip_exchange_seconds", &s.metrics.gossipExchange)
	hist("qosrmd_peer_probe_seconds", &s.metrics.peerProbe)
}

// uncovered returns the first scheduled application the database has no
// data for, with ok=false; ok=true means the spec is fully covered.
func (s *Server) uncovered(spec *scenario.Spec) (string, bool) {
	for _, b := range spec.Benchmarks() {
		if s.db.NumPhases(b.Name) == 0 {
			return b.Name, false
		}
	}
	return "", true
}

// runError maps a simulation failure: client disconnects surface as 499
// (the de-facto "client closed request" status), anything else is a
// server-side 500 — request validation already rejected everything a
// client could get wrong.
func (s *Server) runError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		s.fail(w, 499, "request cancelled")
		return
	}
	s.fail(w, http.StatusInternalServerError, "%v", err)
}
