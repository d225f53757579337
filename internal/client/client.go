// Package client is the retrying qosrmd API client. It is used from
// two places: the public qosrm package re-exports it (DialService), and
// a qosrmd node in cluster mode uses the same client to forward
// overflow jobs to its peers — the retry, backoff and idempotency
// machinery is identical in both roles, so it lives once, here.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"qosrm/internal/api"
	"qosrm/internal/cluster"
	"qosrm/internal/scenario"
)

// ServiceError is a non-2xx response from the service, carrying the
// machine-readable rejection reason when the server classified it (e.g.
// "batch_too_large", "queue_full", "rate_limited") so callers can route
// on Reason instead of matching message strings.
type ServiceError struct {
	StatusCode int
	Reason     string
	Message    string
	// RetryAfter is the server-advertised backoff (0 when the response
	// carried no Retry-After header).
	RetryAfter time.Duration
}

func (e *ServiceError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.StatusCode)
	}
	return fmt.Sprintf("HTTP %d", e.StatusCode)
}

// Temporary reports whether the rejection is worth retrying: rate
// limiting, a bad gateway in front of the daemon, an overloaded or
// draining instance.
func (e *ServiceError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// ReasonResponseTooLarge is the client-side rejection reason of a
// response body exceeding the decode bound: the exchange succeeded at
// the HTTP layer but the payload cannot be represented faithfully, so
// the client refuses it instead of decoding a silent truncation.
const ReasonResponseTooLarge = "response_too_large"

// maxResponseBytes bounds how much of a response body the client reads.
// A body larger than this — an absurdly oversized sweep report — is
// rejected with a ReasonResponseTooLarge ServiceError rather than
// silently truncated into a JSON decode error. Variable so tests can
// shrink it.
var maxResponseBytes int64 = 64 << 20

// Client is a qosrmd API client; Dial returns a connected one.
// Requests that fail transiently — connection refused or reset, 429,
// 502/503/504 — are retried with exponential backoff and jitter,
// honouring the server's Retry-After. Every request the client issues
// is safe to retry: GETs trivially, the synchronous POSTs because they
// are pure computations, and SubmitSweep because it attaches an
// Idempotency-Key the server deduplicates on.
type Client struct {
	base string
	// HTTPClient may be replaced before first use; Dial installs a
	// default with a 30 s overall timeout.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (default 3;
	// negative disables retrying).
	MaxRetries int
}

// Client retry tuning: the first retry waits about retryBaseDelay,
// doubling per attempt up to retryMaxDelay, each delay jittered to
// [delay/2, delay) so synchronized clients spread out.
const (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 5 * time.Second
)

// New returns a client for the qosrmd instance at baseURL without
// probing it; Dial is New plus a health check.
func New(baseURL string) *Client {
	return &Client{
		base:       strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

// Dial connects to a running qosrmd instance at baseURL (e.g.
// "http://127.0.0.1:8423") and verifies it is healthy before returning.
func Dial(baseURL string) (*Client, error) {
	c := New(baseURL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Health(ctx); err != nil {
		return nil, fmt.Errorf("qosrm: dial %s: %w", baseURL, err)
	}
	return c, nil
}

// At returns a client for another node of the same cluster — the
// JobStatus.Origin of a forwarded submit — sharing this client's HTTP
// transport and retry budget. The origin node is where a forwarded job
// must be polled.
func (c *Client) At(baseURL string) *Client {
	return &Client{
		base:       strings.TrimRight(baseURL, "/"),
		HTTPClient: c.HTTPClient,
		MaxRetries: c.MaxRetries,
	}
}

// Health fetches the service's health report.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Savings evaluates an application mix on the service: the configured
// manager against its idle twin, exactly System.Savings but on the
// server's shared warm database.
func (c *Client) Savings(ctx context.Context, req *api.SavingsRequest) (*api.SavingsResponse, error) {
	var out api.SavingsResponse
	if err := c.do(ctx, http.MethodPost, "/v1/savings", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunScenario executes one declarative scenario synchronously on the
// service. The report is bit-identical to System.RunScenario on the
// same spec (equivalence-tested).
func (c *Client) RunScenario(ctx context.Context, spec *scenario.Spec) (*scenario.Report, error) {
	var out scenario.Report
	if err := c.do(ctx, http.MethodPost, "/v1/scenarios", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitSweep queues a batch of scenarios as an asynchronous job and
// returns its initial status (carrying the job ID to poll). The submit
// carries a fresh random Idempotency-Key, so the client's own retries
// (and any caller-level retry of a failed SubmitSweep call that reuses
// the returned job) cannot enqueue the sweep twice.
func (c *Client) SubmitSweep(ctx context.Context, specs []scenario.Spec) (*api.JobStatus, error) {
	return c.SubmitSweepKey(ctx, specs, NewIdempotencyKey())
}

// SubmitSweepKey is SubmitSweep under a caller-chosen idempotency key:
// submitting the same key again — from this process or a restarted one,
// against the same or a restarted server (when it journals) — returns
// the existing job instead of queuing a duplicate.
func (c *Client) SubmitSweepKey(ctx context.Context, specs []scenario.Spec, key string) (*api.JobStatus, error) {
	return c.submit(ctx, specs, key, nil)
}

// ForwardSweep is the cluster-internal submit a qosrmd node uses to
// push an overflow batch to a peer: the caller's idempotency key is
// propagated verbatim (so the dedupe contract holds across nodes) and
// the visited-node trail travels in the X-Qosrm-Forward-Trail header,
// letting the receiving node skip every node the batch has already
// been through and refuse to forward past its own hop budget.
func (c *Client) ForwardSweep(ctx context.Context, specs []scenario.Spec, key string, trail []string) (*api.JobStatus, error) {
	return c.submit(ctx, specs, key, trail)
}

func (c *Client) submit(ctx context.Context, specs []scenario.Spec, key string, trail []string) (*api.JobStatus, error) {
	var out api.JobStatus
	req := api.JobRequest{Specs: specs}
	hdr := http.Header{}
	if key != "" {
		hdr.Set(api.IdempotencyKeyHeader, key)
	}
	if len(trail) > 0 {
		hdr.Set(api.ForwardTrailHeader, strings.Join(trail, ","))
	}
	if err := c.doHeaders(ctx, http.MethodPost, "/v1/jobs", hdr, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// NewIdempotencyKey draws a 128-bit random key.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal platform breakage;
		// an empty key degrades to a non-idempotent submit.
		return ""
	}
	return "qosrm-" + hex.EncodeToString(b[:])
}

// ExchangeCluster runs one push-pull anti-entropy exchange (POST
// /v1/cluster): the receiver merges ex and answers with its own view
// for the caller to merge back. This is the gossip transport a qosrmd
// node drives every gossip interval.
func (c *Client) ExchangeCluster(ctx context.Context, ex *cluster.Exchange) (*cluster.Exchange, error) {
	var out cluster.Exchange
	if err := c.do(ctx, http.MethodPost, "/v1/cluster", ex, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// maxSnapshotBytes bounds a fetched database snapshot — matching the
// dbstore reader's own payload bound, far above any real suite.
const maxSnapshotBytes = 1 << 31

// Snapshot fetches a node's database snapshot bytes (GET /v1/snapshot),
// the dbstore binary format verbatim. The caller must verify them with
// the dbstore loader before trusting a byte — server.FetchSnapshot is
// the join flow that does.
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("qosrm: GET /v1/snapshot: %w", err)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("qosrm: GET /v1/snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		se := &ServiceError{StatusCode: resp.StatusCode}
		var e api.ErrorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil {
			se.Message, se.Reason = e.Error, e.Reason
		}
		return nil, fmt.Errorf("qosrm: GET /v1/snapshot: %w", se)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, fmt.Errorf("qosrm: GET /v1/snapshot: %w", err)
	}
	return data, nil
}

// EventStream is a live job event stream returned by JobEvents: call
// Next until a terminal frame (Type "done", "failed" or "expired") or
// an error, then Close. Closing early is always safe and is how a
// consumer walks away from a stream mid-job.
type EventStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Next returns the next frame. io.EOF means the server ended the stream
// without a terminal frame (shutdown, or the connection dropped).
func (s *EventStream) Next() (*api.JobEvent, error) {
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ev := &api.JobEvent{}
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, fmt.Errorf("qosrm: job events: decode frame: %w", err)
		}
		return ev, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, fmt.Errorf("qosrm: job events: %w", err)
	}
	return nil, io.EOF
}

// Close releases the stream's connection.
func (s *EventStream) Close() error { return s.body.Close() }

// JobEvents opens the live interval-event stream of a job (GET
// /v1/jobs/{id}/events, NDJSON framing). The stream replays the job's
// buffered event tail, then follows live events until the job finishes;
// a consumer slower than the engine loses oldest events and sees the
// frames' dropped counter grow. The request deliberately bypasses the
// retry loop and the HTTPClient's overall timeout (a stream lives as
// long as the job runs): cancellation is ctx's alone.
func (c *Client) JobEvents(ctx context.Context, id string) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, fmt.Errorf("qosrm: GET /v1/jobs/%s/events: %w", id, err)
	}
	if rid := api.RequestID(ctx); rid != "" {
		req.Header.Set(api.RequestIDHeader, rid)
	}
	// Share the transport (connection pool), not the client-level
	// Timeout, which would kill the stream mid-job.
	httpc := &http.Client{Transport: c.HTTPClient.Transport}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("qosrm: GET /v1/jobs/%s/events: %w", id, err)
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		se := &ServiceError{StatusCode: resp.StatusCode}
		var e api.ErrorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil {
			se.Message, se.Reason = e.Error, e.Reason
		}
		return nil, fmt.Errorf("qosrm: GET /v1/jobs/%s/events: %w", id, se)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &EventStream{body: resp.Body, sc: sc}, nil
}

// Job fetches the current status of an asynchronous job.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it finishes (done or failed) or ctx
// expires. Polling backs off: the first check comes quickly (short jobs
// return fast), then the interval doubles with jitter up to poll, which
// caps the cadence. poll ≤ 0 defaults to 250 ms.
//
// A poll answered with 404 is terminal, not retried: the job's TTL
// expired between polls (or the id never existed), and no amount of
// waiting brings it back.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	delay := 10 * time.Millisecond
	if delay > poll {
		delay = poll
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State == api.JobDone || j.State == api.JobFailed {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jitter(delay)):
		}
		if delay *= 2; delay > poll {
			delay = poll
		}
	}
}

// jitter spreads a delay uniformly over [d/2, d) so many waiters do not
// poll in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)))
}

// do runs one JSON exchange with the retry loop around it.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doHeaders(ctx, method, path, nil, in, out)
}

// doHeaders marshals the body once and retries the round trip on
// transient failures: network errors the context did not cause, and
// ServiceError.Temporary() statuses. Backoff doubles per attempt with
// jitter; a server-advertised Retry-After longer than the computed
// delay wins.
func (c *Client) doHeaders(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("qosrm: %s %s: %w", method, path, err)
		}
	}
	retries := c.MaxRetries
	switch {
	case retries == 0:
		retries = 3
	case retries < 0:
		retries = 0
	}
	delay := retryBaseDelay
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, hdr, data, in != nil, out)
		if err == nil {
			return nil
		}
		if attempt >= retries || ctx.Err() != nil || !transient(err) {
			return err
		}
		wait := jitter(delay)
		var se *ServiceError
		if asServiceError(err, &se) && se.RetryAfter > wait {
			wait = se.RetryAfter
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if delay *= 2; delay > retryMaxDelay {
			delay = retryMaxDelay
		}
	}
}

// doOnce is one JSON round trip, decoding the service's error envelope
// on non-2xx statuses into a *ServiceError.
func (c *Client) doOnce(ctx context.Context, method, path string, hdr http.Header, data []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("qosrm: %s %s: %w", method, path, err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the request id when the context carries one: a qosrmd
	// node forwarding a job passes its request context here, so the
	// ingress-minted X-Qosrm-Request-Id travels verbatim to the peer.
	if id := api.RequestID(ctx); id != "" {
		req.Header.Set(api.RequestIDHeader, id)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("qosrm: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	// Read one byte past the bound so an exactly-truncated body is
	// distinguishable from one that merely fills it.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return fmt.Errorf("qosrm: %s %s: %w", method, path, err)
	}
	if int64(len(raw)) > maxResponseBytes {
		se := &ServiceError{
			StatusCode: resp.StatusCode,
			Reason:     ReasonResponseTooLarge,
			Message:    fmt.Sprintf("response exceeds %d bytes", maxResponseBytes),
		}
		return fmt.Errorf("qosrm: %s %s: %w", method, path, se)
	}
	if resp.StatusCode >= 300 {
		se := &ServiceError{StatusCode: resp.StatusCode}
		var e api.ErrorResponse
		if json.Unmarshal(raw, &e) == nil {
			se.Message, se.Reason = e.Error, e.Reason
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return fmt.Errorf("qosrm: %s %s: %w", method, path, se)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("qosrm: %s %s: decode response: %w", method, path, err)
	}
	return nil
}

// transient reports whether an exchange failure is worth retrying: a
// Temporary service rejection, or a transport-level error (connection
// refused/reset, broken pipe) that was not the caller's own context
// firing.
func transient(err error) bool {
	var se *ServiceError
	if asServiceError(err, &se) {
		return se.Temporary()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Remaining failures wrap a transport error from http.Client.Do —
	// the dial, write or read failed.
	var ue *url.Error
	return errors.As(err, &ue)
}

// asServiceError unwraps a *ServiceError if err carries one.
func asServiceError(err error, se **ServiceError) bool {
	return errors.As(err, se)
}
