package qosrm

import (
	"context"

	"qosrm/internal/api"
	"qosrm/internal/client"
	"qosrm/internal/server"
)

// Serving-layer types, re-exported so clients and embedders need only
// this package. The implementations live in internal/server (the
// daemon), internal/api (the wire types) and internal/client (the
// retrying client — the same code a cluster node uses to forward
// overflow jobs to a peer).
type (
	// ServerOptions configures an embedded qosrmd API server.
	ServerOptions = server.Options
	// Server is the qosrmd API server; see System.NewServer.
	Server = server.Server
	// ServiceHealth is the GET /healthz response.
	ServiceHealth = server.Health
	// ServiceJob is the status of one asynchronous sweep job. Origin is
	// non-empty when a cluster node forwarded the submit to a peer: the
	// job lives there, and Client.At(job.Origin) polls it.
	ServiceJob = server.JobStatus
	// SavingsRequest is the POST /v1/savings body.
	SavingsRequest = server.SavingsRequest
	// SavingsResponse is the POST /v1/savings response.
	SavingsResponse = server.SavingsResponse
	// Client is a qosrmd API client; see DialService. Transient
	// failures (connection refused/reset, 429, 502/503/504) are retried
	// with exponential backoff and jitter, honouring Retry-After.
	Client = client.Client
	// ServiceError is a non-2xx response from the service, carrying the
	// machine-readable rejection reason ("queue_full", "rate_limited",
	// "batch_too_large", ...) so callers can route on Reason instead of
	// matching message strings.
	ServiceError = client.ServiceError
	// ServiceJobEvent is one frame of a job's live event stream
	// (GET /v1/jobs/{id}/events): an "interval" frame per interval
	// boundary of the simulation, then a terminal "done" / "failed" /
	// "expired" frame. Dropped counts events the bounded per-job ring
	// overwrote before this consumer read them.
	ServiceJobEvent = api.JobEvent
	// JobEventStream iterates a live job event stream; see
	// Client.JobEvents. Next returns frames until the terminal one, then
	// io.EOF; Close releases the connection early.
	JobEventStream = client.EventStream
)

// NewServer starts the qosrmd API server — the same serving layer
// cmd/qosrmd runs — over this system's database: savings evaluations,
// synchronous scenario runs and an asynchronous sweep-job queue backed
// by a bounded worker pool. With ServerOptions.JournalPath set, the job
// queue is crash-safe: New replays the journal, so the error return
// covers an unopenable or version-incompatible journal file. With
// ServerOptions.Peers naming gossip seeds (and Advertise set so
// peers can reach this node), the node runs in cluster mode: it
// discovers the rest of the cluster by anti-entropy gossip, expels dead
// members within seconds via a SWIM-lite failure detector, and forwards
// overflow jobs to the least-loaded live member instead of answering
// 503. The caller owns the lifecycle: mount Handler() on a listener and
// Close() the server on shutdown.
func (s *System) NewServer(opts ServerOptions) (*Server, error) {
	return server.New(s.db, opts)
}

// FetchClusterSnapshot bootstraps a joining node that has no local
// database: it fetches the dbstore snapshot from the first reachable
// seed (GET /v1/snapshot), verifies it end to end — magic, version,
// checksum, params hash against this binary's compiled-in suite —
// persists it to path (atomic; "" skips persisting) and returns the
// loaded database, ready for FromDB(...).NewServer, along with the seed
// that served it. A version or suite mismatch refuses the join: every
// node of a cluster must serve the same database build.
func FetchClusterSnapshot(ctx context.Context, path string, seeds []string) (*DB, string, error) {
	return server.FetchSnapshot(ctx, path, seeds)
}

// DialService connects to a running qosrmd instance at baseURL (e.g.
// "http://127.0.0.1:8423") and verifies it is healthy before returning.
func DialService(baseURL string) (*Client, error) {
	return client.Dial(baseURL)
}

// NewClient returns a client for the qosrmd instance at baseURL without
// probing it; DialService is NewClient plus a health check.
func NewClient(baseURL string) *Client {
	return client.New(baseURL)
}
