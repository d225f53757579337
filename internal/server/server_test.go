package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/sim"
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
		for _, n := range []string{"mcf", "povray", "bwaves"} {
			b, err := bench.ByName(n)
			if err != nil {
				dbErr = err
				return
			}
			benches = append(benches, b)
		}
		shared, dbErr = db.Build(benches, db.Options{TraceLen: 8192, Warmup: 2048})
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return shared
}

// newTestServer boots a server + httptest frontend over the shared
// database and tears both down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(sharedDB(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON posts a JSON body and decodes a JSON response into out.
func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// testSpec is a small churn scenario over the shared database.
func testSpec(name string) scenario.Spec {
	const work = 3 * 100_000_000 * 2048
	return scenario.Spec{
		Name: name,
		RM:   "RM3",
		Cores: []scenario.CoreSpec{
			{Jobs: []scenario.JobSpec{
				{App: "mcf", Work: work, DepartNs: 2e8},
				{App: "povray", Work: work, Alpha: 1.2},
			}},
			{Jobs: []scenario.JobSpec{
				{App: "bwaves", Work: work},
			}},
		},
		Steps: []scenario.StepSpec{{AtNs: 2.5e8, Alpha: 1.1}},
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var h Health
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || h.Benchmarks != 3 || h.TraceLen != 8192 {
		t.Fatalf("unexpected health %+v", h)
	}
}

// TestSavingsMatchesInProcess is the API-vs-library equivalence check
// for the savings path: the HTTP response must carry exactly the
// numbers the in-process simulation produces, bit for bit (JSON float64
// round-trips are exact with Go's shortest-form encoder).
func TestSavingsMatchesInProcess(t *testing.T) {
	d := sharedDB(t)
	_, ts := newTestServer(t, Options{})

	var got SavingsResponse
	code, raw := postJSON(t, ts.URL+"/v1/savings",
		SavingsRequest{Apps: []string{"mcf", "povray"}, RM: "RM3"}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}

	apps := []*bench.Benchmark{mustBench(t, "mcf"), mustBench(t, "povray")}
	cfg := sim.Config{RM: rm.RM3}
	idleCfg := cfg
	idleCfg.RM = rm.Idle
	idle, err := sim.Run(d, apps, idleCfg)
	if err != nil {
		t.Fatal(err)
	}
	managed, err := sim.Run(d, apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SavingsResponse{
		Policy:        rm.PolicyModel3,
		Saving:        1 - managed.EnergyJ/idle.EnergyJ,
		EnergyJ:       managed.EnergyJ,
		IdleEnergyJ:   idle.EnergyJ,
		TimeNs:        managed.TimeNs,
		RMCalled:      managed.RMCalled,
		ViolationRate: managed.ViolationRate(),
		Apps:          managed.Apps,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HTTP savings differ from in-process run:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioMatchesInProcess is the acceptance equivalence: a
// scenario run through the HTTP API returns a report bit-identical to
// scenario.Run on the same spec.
func TestScenarioMatchesInProcess(t *testing.T) {
	d := sharedDB(t)
	_, ts := newTestServer(t, Options{})
	spec := testSpec("http-equiv")

	var got scenario.Report
	code, raw := postJSON(t, ts.URL+"/v1/scenarios", &spec, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	want, err := scenario.Run(d, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("HTTP scenario report differs from in-process run:\n got %+v\nwant %+v", got, want)
	}
}

// TestPooledScenariosMatchOneShot sends concurrent synchronous
// scenarios that mix core counts, managers, policies and way donation,
// interleaved with savings requests of mixed core counts, managers and
// policies, so the pooled workspaces serve every shape of both endpoints
// in turn. It requires each scenario body to be byte-identical to the
// encoding of a one-shot scenario.Run of the same spec, and each savings
// body to the encoding of a response built from one-shot sim.Run calls.
func TestPooledScenariosMatchOneShot(t *testing.T) {
	d := sharedDB(t)
	_, ts := newTestServer(t, Options{})
	const work = 3 * 100_000_000 * 2048
	apps := []string{"mcf", "povray", "bwaves"}
	var specs []scenario.Spec
	var want [][]byte
	for i, n := range []int{2, 4, 8} {
		for j, kind := range []string{"RM1", "RM2", "RM3"} {
			policy := rm.PolicyNames()[(i+j)%3]
			if policy == rm.PolicyBrute && n > 2 {
				policy = rm.PolicyGreedy // enumeration is exponential in cores
			}
			spec := scenario.Spec{
				Name: fmt.Sprintf("pool-%d-%s", n, kind), RM: kind, Policy: policy,
				DonateIdleWays: (i+j)%2 == 1,
			}
			for c := 0; c < n; c++ {
				jobs := []scenario.JobSpec{{App: apps[c%3], Work: work * float64(1+c%2)}}
				if c == 0 {
					jobs = append(jobs, scenario.JobSpec{App: apps[(c+1)%3], Work: work})
				}
				spec.Cores = append(spec.Cores, scenario.CoreSpec{Jobs: jobs})
			}
			rep, err := scenario.Run(d, &spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(rep); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
			want = append(want, buf.Bytes())
		}
	}
	mixes := [][]string{
		{"mcf"},
		{"mcf", "povray", "bwaves"},
		{"bwaves", "mcf", "povray", "mcf", "povray", "bwaves", "mcf", "povray"},
	}
	var saves []SavingsRequest
	var wantSaves [][]byte
	for i, mix := range mixes {
		for j, kind := range []rm.Kind{rm.Idle, rm.RM1, rm.RM2, rm.RM3} {
			policy := rm.PolicyNames()[(i+j)%3]
			if policy == rm.PolicyBrute && len(mix) > 3 {
				policy = rm.PolicyGreedy
			}
			req := SavingsRequest{Apps: mix, RM: kind.String(), Policy: policy}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(oneShotSavings(t, d, req, kind)); err != nil {
				t.Fatal(err)
			}
			saves = append(saves, req)
			wantSaves = append(wantSaves, buf.Bytes())
		}
	}

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := range 2 * len(specs) {
				i := (c + r) % len(specs)
				code, raw := postJSONErr(ts.URL+"/v1/scenarios", &specs[i], nil)
				if code != http.StatusOK || raw != string(want[i]) {
					t.Errorf("%s: status %d, body differs from one-shot run:\n got %s\nwant %s", specs[i].Name, code, raw, want[i])
				}
				k := (c + r) % len(saves)
				code, raw = postJSONErr(ts.URL+"/v1/savings", &saves[k], nil)
				if code != http.StatusOK || raw != string(wantSaves[k]) {
					t.Errorf("savings %+v: status %d, body differs from one-shot runs:\n got %s\nwant %s", saves[k], code, raw, wantSaves[k])
				}
			}
		}(c)
	}
	wg.Wait()
}

// oneShotSavings computes the response to req, whose manager is kind, in
// process: the idle twin and the managed run are one-shot sim.Run calls
// with no workspace.
func oneShotSavings(t *testing.T, d *db.DB, req SavingsRequest, kind rm.Kind) *SavingsResponse {
	t.Helper()
	apps := make([]*bench.Benchmark, len(req.Apps))
	for i, name := range req.Apps {
		apps[i] = mustBench(t, name)
	}
	cfg := sim.Config{RM: kind, Policy: req.Policy}
	idleCfg := cfg
	idleCfg.RM = rm.Idle
	idle, err := sim.Run(d, apps, idleCfg)
	if err != nil {
		t.Fatal(err)
	}
	managed := idle
	if kind != rm.Idle {
		if managed, err = sim.Run(d, apps, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return &SavingsResponse{
		Policy:        req.Policy,
		Saving:        1 - managed.EnergyJ/idle.EnergyJ,
		EnergyJ:       managed.EnergyJ,
		IdleEnergyJ:   idle.EnergyJ,
		TimeNs:        managed.TimeNs,
		RMCalled:      managed.RMCalled,
		ViolationRate: managed.ViolationRate(),
		Apps:          managed.Apps,
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 2048})

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"unknown app", "/v1/savings", `{"apps":["nosuch"]}`, 400},
		{"no apps", "/v1/savings", `{"apps":[]}`, 400},
		{"unknown rm", "/v1/savings", `{"apps":["mcf"],"rm":"RM9"}`, 400},
		{"unknown field", "/v1/savings", `{"apps":["mcf"],"turbo":true}`, 400},
		{"malformed", "/v1/savings", `{"apps":`, 400},
		{"trailing", "/v1/savings", `{"apps":["mcf"]}{"again":1}`, 400},
		{"scenario no cores", "/v1/scenarios", `{"name":"x","cores":[]}`, 400},
		{"scenario bad app", "/v1/scenarios", `{"name":"x","cores":[{"jobs":[{"app":"nosuch"}]}]}`, 400},
		{"jobs empty", "/v1/jobs", `{"specs":[]}`, 400},
		{"oversized", "/v1/scenarios", `{"name":"` + strings.Repeat("x", 4096) + `"}`, 413},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: missing error envelope: %s", tc.name, body)
		}
	}

	// Method mismatches: the mux serves 405 for wrong-method requests.
	resp, err := http.Get(ts.URL + "/v1/savings")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/savings: status %d, want 405", resp.StatusCode)
	}
}

// TestJobLifecycle submits an async sweep, polls it to completion and
// checks the reports match an in-process scenario.Sweep of the same
// batch.
func TestJobLifecycle(t *testing.T) {
	d := sharedDB(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	specs := []scenario.Spec{testSpec("job-a"), testSpec("job-b"), testSpec("job-c")}

	data, err := json.Marshal(JobRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("202 response Content-Type %q, want application/json", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Total != len(specs) {
		t.Fatalf("unexpected submit status %+v", st)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for st.State != JobDone && st.State != JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d)", st.ID, st.State, st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
	}
	if st.State != JobDone || st.Error != "" {
		t.Fatalf("job failed: %+v", st)
	}
	want, err := scenario.Sweep(d, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(st.Reports), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(st.Reports[i], want[i]) {
			t.Fatalf("job report %d differs from in-process sweep:\n got %+v\nwant %+v", i, st.Reports[i], want[i])
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nosuch", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
}

// TestJobQueueBound pins the admission contract: a batch that can
// never fit the queue is a permanent 400; a batch that merely does not
// fit right now is a transient 503; neither is ever half-admitted.
func TestJobQueueBound(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	// Larger than the queue's total capacity: permanently unadmittable.
	specs := []scenario.Spec{testSpec("q-a"), testSpec("q-b"), testSpec("q-c")}
	code, raw := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Specs: specs}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", code, raw)
	}
	if !strings.Contains(raw, "queue capacity") {
		t.Fatalf("unexpected rejection body: %s", raw)
	}

	// Queue currently occupied: transient, so 503. Occupancy is forced
	// directly (white box) to keep the test deterministic.
	srv.mu.Lock()
	srv.queued = 2
	srv.mu.Unlock()
	code, raw = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Specs: specs[:1]}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("full queue: status %d, want 503: %s", code, raw)
	}
	if !strings.Contains(raw, "queue full") {
		t.Fatalf("unexpected rejection body: %s", raw)
	}
	srv.mu.Lock()
	srv.queued = 0
	srv.mu.Unlock()
}

// TestCloseRejectsJobs checks graceful shutdown semantics on the job
// path: after Close, submissions are refused as unavailable.
func TestCloseRejectsJobs(t *testing.T) {
	srv, err := New(sharedDB(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	code, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Specs: []scenario.Spec{testSpec("late")}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code, _ := postJSON(t, ts.URL+"/v1/savings", SavingsRequest{Apps: []string{"mcf"}, RM: "RM1"}, nil); code != http.StatusOK {
		t.Fatalf("savings status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`qosrmd_requests_total{path="/v1/savings"} 1`,
		"qosrmd_workers",
		"qosrmd_db_benchmarks 3",
		"qosrmd_scenario_queue_depth 0",
		"# TYPE qosrmd_rm_curves gauge",
		"# TYPE qosrmd_rm_curves_computed_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentClients is the stress test the race CI job leans on:
// many goroutines mix synchronous savings/scenario requests with async
// job submissions and polls against one server. Every response must be
// well-formed and every identical request must produce the identical
// result (the engine is deterministic and the database read-only).
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 128})
	spec := testSpec("stress")
	want, err := scenario.Run(sharedDB(t), &spec)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const rounds = 3
	var wg sync.WaitGroup
	errCh := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (c + r) % 3 {
				case 0:
					var got SavingsResponse
					code, raw := postJSONErr(ts.URL+"/v1/savings",
						SavingsRequest{Apps: []string{"mcf", "povray"}, RM: "RM3"}, &got)
					if code != http.StatusOK {
						errCh <- fmt.Errorf("savings status %d: %s", code, raw)
					} else if got.Saving == 0 && got.EnergyJ == 0 {
						errCh <- fmt.Errorf("empty savings response")
					}
				case 1:
					var got scenario.Report
					code, raw := postJSONErr(ts.URL+"/v1/scenarios", &spec, &got)
					if code != http.StatusOK {
						errCh <- fmt.Errorf("scenario status %d: %s", code, raw)
					} else if !reflect.DeepEqual(&got, want) {
						errCh <- fmt.Errorf("concurrent scenario result diverged")
					}
				default:
					var st JobStatus
					code, raw := postJSONErr(ts.URL+"/v1/jobs",
						JobRequest{Specs: []scenario.Spec{spec}}, &st)
					if code != http.StatusAccepted {
						errCh <- fmt.Errorf("job status %d: %s", code, raw)
						continue
					}
					for st.State != JobDone && st.State != JobFailed {
						time.Sleep(5 * time.Millisecond)
						if code := getJSONErr(ts.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
							errCh <- fmt.Errorf("job poll status %d", code)
							break
						}
					}
					if st.State == JobDone && !reflect.DeepEqual(st.Reports[0], want) {
						errCh <- fmt.Errorf("concurrent job result diverged")
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// postJSONErr / getJSONErr are the t-less helpers the stress test's
// goroutines use (testing.T is not goroutine-safe for Fatal).
func postJSONErr(url string, body any, out any) (int, string) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, err.Error()
		}
	}
	return resp.StatusCode, string(raw)
}

func getJSONErr(url string, out any) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return 0
	}
	return resp.StatusCode
}

func mustBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
