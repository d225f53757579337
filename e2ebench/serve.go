package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qosrm/internal/cluster"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/jobstore"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/server"
	"qosrm/internal/workload"
)

// The serve phase's committed load shape. The rate is fixed, not
// calibrated at run time, so a faster server shows lower latency instead
// of absorbing more load.
const (
	// jobShare of the open-loop requests are asynchronous one-spec job
	// submits; the rest are synchronous scenario requests. It keeps node
	// A's worker so lightly busy that only a few percent of the jobs find
	// it busy and go to B, so serve_job_p90_ms measures the jobs A runs
	// itself instead of jumping between them and the slower forwarded
	// ones.
	jobShare = 0.05
	// syncCores and jobCores size the served specs: synchronous
	// requests carry the smaller systems, jobs the larger ones.
	syncCores, jobCores = 4, 8
	// queueDepthA is node A's queue depth. With one worker, a job that
	// arrives while A still holds one is forwarded to B, so a steady
	// share of jobs overflows while B's default depth rejects none.
	queueDepthA = 1
	// gossipInterval is both nodes' anti-entropy cadence; set-up waits
	// for A's first exchange with B.
	gossipInterval = 100 * time.Millisecond
)

// node is one in-process qosrmd: a server.Server behind a loopback
// listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(d *db.DB, ln net.Listener, opts server.Options) (*node, error) {
	srv, err := server.New(d, opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: opts.Advertise, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// close stops the listener, waits for in-flight requests and the serve
// loop, then stops the server's workers and background loops.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n.hs.Shutdown(ctx) != nil {
		n.hs.Close()
	}
	<-n.done
	n.srv.Close()
}

// pair is the two-node cluster: B is A's gossip seed and A's forwarding
// target.
type pair struct{ a, b *node }

func (p *pair) close() {
	if p.a != nil {
		p.a.close()
	}
	if p.b != nil {
		p.b.close()
	}
}

// bootPair is the serve phase's set-up: load the snapshot, boot both
// journaled nodes with one worker each, and wait until gossip has put B
// into A's membership as a live member.
func bootPair(hc *http.Client, snapshot, dir string) (*pair, error) {
	d, _, err := dbstore.Load(snapshot)
	if err != nil {
		return nil, err
	}
	var lns [2]net.Listener
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			if i > 0 {
				lns[0].Close()
			}
			return nil, err
		}
	}
	urlA, urlB := "http://"+lns[0].Addr().String(), "http://"+lns[1].Addr().String()
	journalA, journalB := filepath.Join(dir, "a.journal"), filepath.Join(dir, "b.journal")
	for _, j := range []string{journalA, journalB} {
		if err := os.Remove(j); err != nil && !errors.Is(err, os.ErrNotExist) {
			lns[0].Close()
			lns[1].Close()
			return nil, err
		}
	}
	p := &pair{}
	p.b, err = startNode(d, lns[1], server.Options{
		Workers: 1, JournalPath: journalB, NodeID: "b", Advertise: urlB, GossipInterval: gossipInterval,
	})
	if err != nil {
		lns[0].Close()
		return nil, err
	}
	p.a, err = startNode(d, lns[0], server.Options{
		Workers: 1, QueueDepth: queueDepthA, JournalPath: journalA, NodeID: "a", Advertise: urlA,
		Peers: []string{urlB}, GossipInterval: gossipInterval,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view cluster.Exchange
		if err := getJSON(hc, urlA+"/v1/cluster", &view); err != nil {
			p.close()
			return nil, err
		}
		for _, m := range view.Members {
			if m.ID == "b" && m.State == cluster.StateAlive {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.close()
			return nil, errors.New("node A never saw node B alive")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	status, body, err := send(hc, req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(body, v)
}

// servePlan is the serve phase's input, generated from the seed: the
// pools of distinct synchronous and job specs of the workload's shape with
// their request bodies and in-process reference reports, and the open-loop
// schedule's choice of request kind and spec.
type servePlan struct {
	syncSpecs, jobSpecs []scenario.Spec
	syncBody, jobBody   [][]byte
	// syncRef is the exact expected /v1/scenarios response body; jobRef
	// the expected report inside a finished job's status.
	syncRef, jobRef [][]byte
	isJob           []bool
	pick            []int
}

func newServePlan(built *db.DB, seed int64, sz sizes, sh shape, requests int) (*servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &servePlan{}
	// pool draws n specs on cores cores, cycling through S1–S4 and, for
	// static mixes, through RM1–RM3.
	pool := func(n, cores int, prefix string) ([]scenario.Spec, error) {
		specs := make([]scenario.Spec, n)
		for i := range specs {
			name, s, specSeed := fmt.Sprintf("%s-%d", prefix, i), paperScenarios[i%len(paperScenarios)], rng.Int63()
			if sh == shapeChurn {
				var err error
				if specs[i], err = churnSpec(name, s, cores, specSeed); err != nil {
					return nil, err
				}
				continue
			}
			mixes, err := workload.Generate(s, cores, 1, specSeed)
			if err != nil {
				return nil, err
			}
			specs[i] = staticSpec(name, mixes[0], rm.Kinds[i%len(rm.Kinds)])
		}
		return specs, nil
	}
	var err error
	if p.syncSpecs, err = pool(sz.syncPool, syncCores, "sync"); err != nil {
		return nil, err
	}
	if p.jobSpecs, err = pool(sz.jobPool, jobCores, "job"); err != nil {
		return nil, err
	}
	for _, sp := range p.syncSpecs {
		body, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		ref, err := inProcessReport(built, sp)
		if err != nil {
			return nil, err
		}
		p.syncBody = append(p.syncBody, body)
		p.syncRef = append(p.syncRef, append(ref, '\n'))
	}
	for _, sp := range p.jobSpecs {
		body, err := json.Marshal(server.JobRequest{Specs: []scenario.Spec{sp}})
		if err != nil {
			return nil, err
		}
		ref, err := inProcessReport(built, sp)
		if err != nil {
			return nil, err
		}
		p.jobBody = append(p.jobBody, body)
		p.jobRef = append(p.jobRef, ref)
	}
	p.isJob = make([]bool, requests)
	p.pick = make([]int, requests)
	for i := range p.isJob {
		p.isJob[i] = rng.Float64() < jobShare
		if p.isJob[i] {
			p.pick[i] = rng.Intn(len(p.jobSpecs))
		} else {
			p.pick[i] = rng.Intn(len(p.syncSpecs))
		}
	}
	return p, nil
}

// inProcessReport is scenario.Run's report, JSON-encoded.
func inProcessReport(d *db.DB, sp scenario.Spec) ([]byte, error) {
	rep, err := scenario.Run(d, &sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// jobStatus is the part of a job status the checks read; reports stay
// raw so they can be compared byte for byte.
type jobStatus struct {
	ID         string            `json:"id"`
	State      string            `json:"state"`
	Total      int               `json:"total"`
	Done       int               `json:"done"`
	Origin     string            `json:"origin"`
	Reports    []json.RawMessage `json:"reports"`
	FinishedAt time.Time         `json:"finished_at"`
}

// acceptedJob is one admitted job submit of the window.
type acceptedJob struct {
	req  int       // window request index
	due  time.Time // the submit's due time
	base string    // the node owning the job
	id   string
	done jobStatus
}

// serveWindow is what the open-loop window measured, over all its parts.
type serveWindow struct {
	syncLat, syncSend []float64 // ms: from due time, and from send time
	jobLat            []float64 // ms: due time to finished_at
	lag, ack          []float64 // ms: send lateness; job submit → 202
	jobs              []acceptedJob
}

// runWindow drives node A open loop with the window's requests from to
// to, on a schedule that starts now, then waits for every job they had
// accepted to finish at its origin node, and checks every output.
func (e *env) runWindow(r *serveRun, from, to int) error {
	plan, w := r.plan, &r.window
	xs := openLoop(r.hc, to-from, r.interval, r.conns, func(k int) (*http.Request, error) {
		i := from + k
		url, body := r.p.a.url+"/v1/scenarios", plan.syncBody[plan.pick[i]]
		if plan.isJob[i] {
			url, body = r.p.a.url+"/v1/jobs", plan.jobBody[plan.pick[i]]
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if plan.isJob[i] {
			req.Header.Set("Idempotency-Key", fmt.Sprintf("e2e-%d-%d", e.cfg.seed, i))
		}
		return req, nil
	})
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	firstJob := len(w.jobs)
	for k := range xs {
		i, x := from+k, &xs[k]
		e.attempted++
		w.lag = append(w.lag, ms(x.sent.Sub(x.due)))
		switch {
		case x.err != nil:
			e.fail("request %d: %v", i, x.err)
		case !plan.isJob[i]:
			if x.status != http.StatusOK || !bytes.Equal(x.body, plan.syncRef[plan.pick[i]]) {
				e.fail("scenario request %d: status %d, report differs from in-process scenario.Run", i, x.status)
				continue
			}
			w.syncLat = append(w.syncLat, ms(x.done.Sub(x.due)))
			w.syncSend = append(w.syncSend, ms(x.done.Sub(x.sent)))
		default:
			var st jobStatus
			if x.status != http.StatusAccepted || json.Unmarshal(x.body, &st) != nil || st.ID == "" {
				e.fail("job submit %d: status %d", i, x.status)
				continue
			}
			w.ack = append(w.ack, ms(x.done.Sub(x.sent)))
			base := r.p.a.url
			if st.Origin != "" {
				base = strings.TrimRight(st.Origin, "/")
			}
			w.jobs = append(w.jobs, acceptedJob{req: i, due: x.due, base: base, id: st.ID})
		}
	}

	// Every accepted job must finish exactly once, at its origin, with
	// the in-process report.
	jobs := w.jobs[firstJob:]
	pending := make([]*acceptedJob, len(jobs))
	for i := range jobs {
		pending[i] = &jobs[i]
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(pending) > 0 {
		next := pending[:0]
		for _, j := range pending {
			if err := getJSON(r.hc, j.base+"/v1/jobs/"+j.id, &j.done); err != nil {
				return err
			}
			if j.done.State != server.JobDone && j.done.State != server.JobFailed {
				next = append(next, j)
			}
		}
		pending = next
		if len(pending) > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d jobs unfinished after 60 s", len(pending))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i := range jobs {
		j := &jobs[i]
		st := &j.done
		if st.State != server.JobDone || st.Total != 1 || st.Done != 1 || len(st.Reports) != 1 ||
			!bytes.Equal(st.Reports[0], plan.jobRef[plan.pick[j.req]]) || st.FinishedAt.IsZero() {
			e.fail("job %s at %s: state %s, %d/%d done, report differs from in-process scenario.Run", st.ID, j.base, st.State, st.Done, st.Total)
			continue
		}
		w.jobLat = append(w.jobLat, ms(st.FinishedAt.Sub(j.due)))
	}
	return nil
}

// promScrape is one /metrics scrape: series (name plus labels) → value.
type promScrape map[string]float64

func scrape(hc *http.Client, base string) (promScrape, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	status, body, err := send(hc, req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, status)
	}
	out := make(promScrape)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta is a series' growth between two scrapes of the same nodes,
// summed over the nodes.
func delta(before, after []promScrape, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// histMeanMs is the mean of a histogram's observations between two
// scrapes, in ms (0 with no observations).
func histMeanMs(before, after []promScrape, name, labels string) float64 {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return 1e3 * ratio(delta(before, after, name+"_sum"+suffix), delta(before, after, name+"_count"+suffix))
}

// checkExactlyOnce fails the run unless the nodes together finished
// exactly the accepted jobs, each once, without failures or retries.
func (e *env) checkExactlyOnce(before, after []promScrape, accepted int) {
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"qosrmd_jobs_finished_total", float64(accepted)},
		{"qosrmd_scenarios_run_total", float64(accepted)},
		{"qosrmd_scenarios_failed_total", 0},
		{"qosrmd_scenarios_retried_total", 0},
	} {
		if got := delta(before, after, c.series); got != c.want {
			e.attempted++
			e.fail("%s grew by %g across the cluster, want %g", c.series, got, c.want)
		}
	}
}

// serveRun is the serve phase's state: its input and set-up times, the
// open-loop window with the scrapes around it, and what the closed loop
// needs and measures.
type serveRun struct {
	loaded        *db.DB
	plan          *servePlan
	setups        []float64
	requests      int           // open-loop requests in the whole window
	interval      time.Duration // between due times
	window        serveWindow
	before, after []promScrape

	p          *pair
	hc         *http.Client
	tr         *http.Transport
	conns      int
	closedDone int64
	closedBusy time.Duration
}

// close stops the cluster and the driver's idle connections.
func (r *serveRun) close() {
	r.p.close()
	r.tr.CloseIdleConnections()
}

// startServe prepares the serve phase, boots the cluster a few times (the
// set-up) and scrapes both nodes before the open-loop window. The caller
// runs the window and closes the run.
func (e *env) startServe(built *db.DB, snapshot string) (*serveRun, error) {
	const setupReps = 3
	conns := runtime.NumCPU()
	windowDur := e.phase(windowShare)
	interval := time.Duration(float64(time.Second) / e.sz.rate)
	n := max(int(windowDur/interval), 1)

	plan, err := newServePlan(built, e.cfg.seed, e.sz, e.shape, n)
	if err != nil {
		return nil, err
	}
	e.input("rate_per_s", e.sz.rate)
	e.input("job_share", jobShare)
	e.input("requests", n)
	e.input("window_s", windowDur.Seconds())
	e.input("connections", conns)
	e.input("sync_cores", syncCores)
	e.input("job_cores", jobCores)
	e.input("queue_depth_a", queueDepthA)

	hc, tr := newDriverClient(conns)
	r := &serveRun{plan: plan, requests: n, interval: interval, hc: hc, tr: tr, conns: conns}
	for i := 0; i < setupReps; i++ {
		if r.p != nil {
			r.close()
		}
		t0 := time.Now()
		if r.p, err = bootPair(hc, snapshot, e.dir); err != nil {
			tr.CloseIdleConnections()
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	// The servers read the snapshot-loaded database; the waterfall reuses
	// one loaded the same way.
	if r.loaded, _, err = dbstore.Load(snapshot); err == nil {
		r.before, err = scrapePair(hc, r.p)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// windowPart runs part k of parts equal parts of the open-loop window.
func (e *env) windowPart(r *serveRun, k, parts int) error {
	return e.runWindow(r, k*r.requests/parts, (k+1)*r.requests/parts)
}

// endWindow scrapes both nodes after the open-loop window and checks that
// the jobs it submitted ran exactly once.
func (e *env) endWindow(r *serveRun) error {
	var err error
	if r.after, err = scrapePair(r.hc, r.p); err != nil {
		return err
	}
	e.checkExactlyOnce(r.before, r.after, len(r.window.jobs))
	return nil
}

// closedFor keeps every driver connection busy with synchronous scenario
// requests to node A for d.
func (e *env) closedFor(r *serveRun, d time.Duration) {
	done, failed, elapsed := closedLoop(d, r.conns, func(w, k int) bool {
		j := (w + k*r.conns) % len(r.plan.syncBody)
		req, err := http.NewRequest(http.MethodPost, r.p.a.url+"/v1/scenarios", bytes.NewReader(r.plan.syncBody[j]))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		status, body, err := send(r.hc, req)
		return err == nil && status == http.StatusOK && bytes.Equal(body, r.plan.syncRef[j])
	})
	e.attempted += done
	for i := int64(0); i < failed; i++ {
		e.fail("closed-loop scenario request failed or differs from in-process scenario.Run")
	}
	r.closedDone += done - failed
	r.closedBusy += elapsed
}

func scrapePair(hc *http.Client, p *pair) ([]promScrape, error) {
	a, err := scrape(hc, p.a.url)
	if err != nil {
		return nil, err
	}
	b, err := scrape(hc, p.b.url)
	if err != nil {
		return nil, err
	}
	return []promScrape{a, b}, nil
}

// reportServe sets the serve metrics.
func (e *env) reportServe(r *serveRun) {
	w := &r.window
	e.set("serve_scenario_p50_ms", quantile(w.syncLat, 0.5))
	e.set("serve_scenario_p90_ms", quantile(w.syncLat, 0.9))
	e.set("serve_job_p50_ms", quantile(w.jobLat, 0.5))
	e.set("serve_job_p90_ms", quantile(w.jobLat, 0.9))
	e.set("serve_peak_rps", ratio(float64(r.closedDone), r.closedBusy.Seconds()))
	forwarded := 0
	for _, j := range w.jobs {
		if j.base != r.p.a.url {
			forwarded++
		}
	}
	e.input("jobs_accepted", len(w.jobs))
	e.input("jobs_forwarded", forwarded)
}

// traceServe is the serve phase's traced run: the open-loop window in
// one piece with both nodes' /metrics scraped before and after it, then
// the synchronous handler's stages timed in process on the same request
// bodies. server.other_us is the server-side time of a scenario request
// that its stages do not account for — decode, validate and encode timed
// in process, the simulation as the server timed it during the window
// (the in-process scenario.run_us runs alone, at another moment, so it
// does not subtract cleanly); client.transport_us is the client's latency
// (from send) beyond the server-side time.
func traceServe(e *env, built *db.DB, snapshot string) error {
	r, err := e.startServe(built, snapshot)
	if err != nil {
		return err
	}
	err = e.windowPart(r, 0, 1)
	if err == nil {
		err = e.endWindow(r)
	}
	r.close()
	if err != nil {
		return err
	}
	w, b, a := &r.window, r.before, r.after
	onA := func(s []promScrape) []promScrape { return s[:1] }
	scenarios := `path="/v1/scenarios"`
	serverMs := histMeanMs(onA(b), onA(a), "qosrmd_http_request_duration_seconds", scenarios)
	simMs := 1e3 * ratio(delta(onA(b), onA(a), "qosrmd_scenarios_busy_seconds_total"),
		delta(onA(b), onA(a), "qosrmd_requests_total{"+scenarios+"}"))
	e.set("server.scenarios_ms", serverMs)
	e.set("server.sim_ms", simMs)
	e.set("server.submit_ms", histMeanMs(onA(b), onA(a), "qosrmd_http_request_duration_seconds", `path="/v1/jobs"`))
	e.set("server.queue_wait_ms", histMeanMs(b, a, "qosrmd_job_queue_wait_seconds", ""))
	e.set("server.job_exec_ms", histMeanMs(b, a, "qosrmd_job_exec_seconds", ""))
	e.set("cluster.forwarded_frac", ratio(delta(onA(b), onA(a), "qosrmd_jobs_forwarded_total"), float64(len(w.jobs))))
	e.set("cluster.forward_rtt_ms", histMeanMs(onA(b), onA(a), "qosrmd_forward_rtt_seconds", ""))
	e.set("cluster.peer_probe_ms", histMeanMs(onA(b), onA(a), "qosrmd_peer_probe_seconds", ""))
	e.set("cluster.gossip_exchange_ms", histMeanMs(b, a, "qosrmd_gossip_exchange_seconds", ""))
	e.set("client.lag_ms", quantile(w.lag, 0.9))
	e.set("client.submit_ack_ms", quantile(w.ack, 0.5))
	e.set("client.transport_us", 1e3*(mean(w.syncSend)-serverMs))

	stages, err := e.waterfall(r)
	if err != nil {
		return err
	}
	e.set("api.decode_us", stages[0])
	e.set("scenario.validate_us", stages[1])
	e.set("scenario.run_us", stages[2])
	e.set("api.encode_us", stages[3])
	e.set("server.other_us", 1e3*(serverMs-simMs)-(stages[0]+stages[1]+stages[3]))

	appendMs, bytesPerJob, err := e.journalAppends(r)
	if err != nil {
		return err
	}
	e.set("jobstore.append_ms", appendMs)
	e.set("jobstore.bytes_per_job", bytesPerJob)
	return nil
}

// waterfall times, in process and in µs per request, the stages the
// /v1/scenarios handler runs on each synchronous body: JSON decode with
// unknown fields disallowed, Validate, scenario.RunCtx with no workspace,
// and JSON encode. The encoded report must equal the served one.
func (e *env) waterfall(r *serveRun) ([4]float64, error) {
	const reps = 3
	var total [4]time.Duration
	var out [4]float64
	calls := 0
	ctx := context.Background()
	for rep := 0; rep < reps; rep++ {
		for j, body := range r.plan.syncBody {
			t0 := time.Now()
			var sp scenario.Spec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sp); err != nil {
				return out, err
			}
			t1 := time.Now()
			if err := sp.Validate(); err != nil {
				return out, err
			}
			t2 := time.Now()
			report, err := scenario.RunCtx(ctx, r.loaded, &sp, nil)
			if err != nil {
				return out, err
			}
			t3 := time.Now()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(report); err != nil {
				return out, err
			}
			t4 := time.Now()
			total[0] += t1.Sub(t0)
			total[1] += t2.Sub(t1)
			total[2] += t3.Sub(t2)
			total[3] += t4.Sub(t3)
			calls++
			e.attempted++
			if !bytes.Equal(buf.Bytes(), r.plan.syncRef[j]) {
				e.fail("in-process waterfall report for %s differs from the served one", sp.Name)
			}
		}
	}
	for i, t := range total {
		out[i] = ratio(float64(t)/1e3, float64(calls))
	}
	return out, nil
}

// journalAppends appends the window's job submit events to a scratch
// journal, one fsynced jobstore.Append each as the submit path does, and
// returns the mean append time and journal bytes per job.
func (e *env) journalAppends(r *serveRun) (float64, float64, error) {
	j, _, err := jobstore.Open(filepath.Join(e.dir, "scratch.journal"))
	if err != nil {
		return 0, 0, err
	}
	defer j.Close()
	size0 := j.Size()
	var total time.Duration
	for i, job := range r.window.jobs {
		ev := jobstore.Event{
			Type:  jobstore.EventSubmit,
			Job:   fmt.Sprintf("j%d", i+1),
			Key:   fmt.Sprintf("e2e-%d-%d", e.cfg.seed, job.req),
			Specs: []scenario.Spec{r.plan.jobSpecs[r.plan.pick[job.req]]},
		}
		t0 := time.Now()
		if err := j.Append(ev); err != nil {
			return 0, 0, err
		}
		total += time.Since(t0)
	}
	n := float64(len(r.window.jobs))
	return ratio(float64(total)/1e6, n), ratio(float64(j.Size()-size0), n), nil
}

// mean returns the mean of xs (0 when empty).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
