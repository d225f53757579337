// Cluster load test: two qosrmd nodes in one process, overflow
// forwarding between them, and the open-loop load harness measuring
// what that buys. Node A gets a deliberately tiny job queue and node B
// as its peer; the same saturating arrival rate is fired at A twice —
// once standalone, once with forwarding enabled — and the reject rates
// are compared: every submit the standalone node sheds with 503
// queue_full that the cluster instead lands on B is capacity the peer
// list kept. A worker stall failpoint pins job service time so the
// saturation is deterministic on any machine.
//
// A single forwarded submit is then followed end to end: the 202 from
// A carries B's job handle ("origin"), and Client.At(origin) polls the
// job where it actually lives.
//
// The example finishes with a cold join: a third node that owns no
// database at all fetches A's snapshot over GET /v1/snapshot (verified
// — magic, version, CRC, params hash — before a byte is trusted),
// persists it, boots warm, and is discovered by the others through
// gossip, at which point it takes a job like any member.
//
// Against separately deployed daemons, the equivalent is:
//
//	qosrmd -snapshot a.qosdb -addr :8423 -queue 8 -peers http://b:8424
//	qosrmd -snapshot b.qosdb -addr :8424
//	loadgen -url http://a:8423 -rps 400 -duration 5s
//	qosrmd -snapshot c.qosdb -addr :8425 -join http://a:8423 -advertise http://c:8425
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"qosrm"
	"qosrm/internal/faultinject"
	"qosrm/internal/loadgen"
)

func main() {
	log.SetFlags(0)

	apps := []string{"mcf", "povray"}
	benches := make([]*qosrm.Benchmark, len(apps))
	for i, n := range apps {
		benches[i] = qosrm.MustBenchmark(n)
	}
	sys, err := qosrm.Open(qosrm.Options{TraceLen: 8192, Warmup: 2048, Benchmarks: benches})
	if err != nil {
		log.Fatal(err)
	}

	// Pin every worker with a stall failpoint so each job holds its queue
	// slot for 50ms regardless of how fast this machine simulates. The
	// saturation the harness measures is then deterministic: one worker
	// drains 20 jobs/s against a 400/s arrival rate on any hardware.
	if err := faultinject.Enable("server.worker", "stall:50ms"); err != nil {
		log.Fatal(err)
	}

	// Node B: a plain node with the same tiny capacity as A, so the
	// comparison isolates forwarding rather than adding a bigger box.
	nodeOpts := qosrm.ServerOptions{Workers: 1, QueueDepth: 8}
	urlB, closeB := serve(sys, nodeOpts)
	defer closeB()

	spec := func(name string) qosrm.ScenarioSpec {
		const work = 4 * 100_000_000 * 2048
		return qosrm.ScenarioSpec{
			Name: name,
			RM:   "RM3",
			Cores: []qosrm.ScenarioCore{
				{Jobs: []qosrm.ScenarioJob{{App: "mcf", Work: work}}},
				{Jobs: []qosrm.ScenarioJob{{App: "povray", Work: work}}},
			},
		}
	}
	attack := func(url string) *loadgen.Result {
		c := qosrm.NewClient(url)
		c.MaxRetries = -1 // rejections are the measurement — surface them
		return loadgen.Run(context.Background(), loadgen.Config{
			RPS:      400,
			Duration: 2 * time.Second,
			Attack:   loadgen.SubmitAttack(c, spec),
		})
	}

	// Round 1: node A standalone, saturated.
	urlA1, closeA1 := serve(sys, nodeOpts)
	solo := attack(urlA1)
	closeA1()
	fmt.Printf("standalone node: %d sent, %d admitted, %d rejected (%.0f%%), p99 %.1fms\n",
		solo.Sent, solo.OK, solo.Rejected, 100*solo.RejectRate, solo.P99Ms)

	// Round 2: the same node shape with B as its peer.
	clusterOpts := nodeOpts
	clusterOpts.Peers = []string{urlB}
	urlA2, closeA2 := serve(sys, clusterOpts)
	defer closeA2()
	cluster := attack(urlA2)
	fmt.Printf("two-node cluster: %d sent, %d admitted (%d forwarded to the peer), %d rejected (%.0f%%), p99 %.1fms\n",
		cluster.Sent, cluster.OK, cluster.Forwarded, cluster.Rejected, 100*cluster.RejectRate, cluster.P99Ms)
	if cluster.RejectRate < solo.RejectRate {
		fmt.Printf("forwarding absorbed %.0f%% of the load the standalone node shed\n",
			100*(solo.RejectRate-cluster.RejectRate)/solo.RejectRate)
	}

	// One forwarded submit, end to end: fill A's queue by submitting a
	// burst, then follow an overflow job to its origin.
	ctx := context.Background()
	c := qosrm.NewClient(urlA2)
	c.MaxRetries = -1
	for i := 0; ; i++ {
		job, err := c.SubmitSweep(ctx, []qosrm.ScenarioSpec{spec(fmt.Sprintf("follow-%d", i))})
		if err != nil {
			var se *qosrm.ServiceError
			if errors.As(err, &se) && se.Reason == "queue_full" {
				// The whole cluster is momentarily saturated from the
				// attack backlog; wait for a slot to drain.
				time.Sleep(50 * time.Millisecond)
				continue
			}
			log.Fatal(err)
		}
		if job.Origin == "" {
			continue // admitted locally; keep filling until one overflows
		}
		fmt.Printf("job %s overflowed to %s; polling it there\n", job.ID, job.Origin)
		done, err := c.At(job.Origin).WaitJob(ctx, job.ID, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("forwarded job finished on the peer: state %s, %d report(s), saving %.1f%%\n",
			done.State, len(done.Reports), 100*done.Reports[0].Saving)
		break
	}

	// Round 3: a brand-new node joins with no local database. It fetches
	// A's snapshot over the wire, persists it for its next boot, and
	// boots warm — no local build, no file copied out of band.
	dir, err := os.MkdirTemp("", "qosrm-join-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, seed, err := qosrm.FetchClusterSnapshot(ctx, filepath.Join(dir, "c.qosdb"), []string{urlA2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joining node fetched a verified %d-benchmark snapshot from %s\n",
		len(d.Benchmarks()), seed)

	lnC, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	urlC := "http://" + lnC.Addr().String()
	joinOpts := nodeOpts
	joinOpts.Peers = []string{urlA2}
	joinOpts.Advertise = urlC
	joinOpts.GossipInterval = 100 * time.Millisecond
	srvC, err := qosrm.FromDB(d).NewServer(joinOpts)
	if err != nil {
		log.Fatal(err)
	}
	hsC := &http.Server{Handler: srvC.Handler()}
	go hsC.Serve(lnC)
	defer func() {
		hsC.Close()
		srvC.Close()
	}()

	// Gossip spreads the membership both ways: the joiner discovers B
	// through A, and within a couple of rounds both peers appear in its
	// forwarding rotation.
	cC := qosrm.NewClient(urlC)
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := cC.Health(ctx)
		if err == nil && h.Peers >= 2 {
			fmt.Printf("joined node is %s with %d peers in its rotation\n", h.Status, h.Peers)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("joined node never discovered its peers")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The joined node serves the identical database build, so it takes
	// jobs like any member.
	job, err := cC.SubmitSweep(ctx, []qosrm.ScenarioSpec{spec("joined-node")})
	if err != nil {
		log.Fatal(err)
	}
	done, err := cC.WaitJob(ctx, job.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined node completed a job: state %s, saving %.1f%%\n",
		done.State, 100*done.Reports[0].Saving)
}

// serve mounts a qosrmd server for sys on a loopback listener and
// returns its base URL plus a teardown.
func serve(sys *qosrm.System, opts qosrm.ServerOptions) (string, func()) {
	srv, err := sys.NewServer(opts)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}
}
