package perfbench

import (
	"context"
	"net/http/httptest"
	"time"

	"qosrm/internal/client"
	"qosrm/internal/db"
	"qosrm/internal/loadgen"
	"qosrm/internal/scenario"
	"qosrm/internal/server"
)

// RunLoad measures admission behaviour under saturating open-loop load
// in two topologies over the same database and the same node
// configuration: one standalone node, then a two-node cluster where the
// attacked node forwards its overflow to an idle peer. The interesting
// comparison is the reject rate at identical offered load — the peer's
// queue is capacity the cluster keeps instead of shedding — alongside
// the submit latency the forwarding hop costs.
func RunLoad(short bool) ([]*loadgen.Result, error) {
	fixture, err := loadFixture()
	if err != nil {
		return nil, err
	}

	// One worker and a tiny queue make a node that genuinely saturates
	// at benchmark-scale load; both topologies use identical nodes so
	// the delta is the forwarding, not a capacity change.
	nodeOpts := server.Options{Workers: 1, QueueDepth: 8}
	rps := 600.0
	duration := 2 * time.Second
	if short {
		duration = time.Second
	}
	spec := loadSpec()

	attack := func(base string) func(context.Context) loadgen.Outcome {
		c := client.New(base)
		c.MaxRetries = -1 // rejections are the measurement
		return loadgen.SubmitAttack(c, func(name string) scenario.Spec {
			sp := spec
			sp.Name = name
			return sp
		})
	}
	run := func(name, base string) *loadgen.Result {
		return loadgen.Run(context.Background(), loadgen.Config{
			Name:     name,
			RPS:      rps,
			Duration: duration,
			// Forwarding hops lengthen submits; a roomy in-flight cap
			// keeps the generator from shedding load the cluster could
			// have absorbed.
			MaxInflight: 256,
			Attack:      attack(base),
		})
	}

	// Topology 1: a single node eats the whole load alone.
	srv1, err := server.New(fixture, nodeOpts)
	if err != nil {
		return nil, err
	}
	ts1 := httptest.NewServer(srv1.Handler())
	single := run("single-node", ts1.URL)
	ts1.Close()
	srv1.Close()

	// Topology 2: the same node with an identical idle peer behind it.
	srvB, err := server.New(fixture, nodeOpts)
	if err != nil {
		return nil, err
	}
	tsB := httptest.NewServer(srvB.Handler())
	optsA := nodeOpts
	optsA.Peers = []string{tsB.URL}
	srvA, err := server.New(fixture, optsA)
	if err != nil {
		tsB.Close()
		srvB.Close()
		return nil, err
	}
	tsA := httptest.NewServer(srvA.Handler())
	cluster := run("two-node-cluster", tsA.URL)
	tsA.Close()
	srvA.Close()
	tsB.Close()
	srvB.Close()

	return []*loadgen.Result{single, cluster}, nil
}

// loadSpec is the per-request scenario: the scenarioBatch shape with
// every job's instruction budget, arrival and departure scaled up
// 2^18-fold, so one scenario runs for seconds, longer than the attack
// itself, on any plausible machine. Admission is then bounded by queue
// capacity alone: a node admits QueueDepth submissions and sheds the
// rest, and the cluster's extra admissions are its peer's queue. With
// short scenarios each node would instead admit whatever its worker
// drains during the attack, which depends on the CPU the worker gets;
// two in-process nodes on a contended CPU drain no faster than one, and
// the topology comparison would measure the scheduler, not forwarding.
func loadSpec() scenario.Spec {
	const scale = 1 << 18
	sp := scenarioBatch()[0]
	sp.Cores = append([]scenario.CoreSpec(nil), sp.Cores...)
	for ci := range sp.Cores {
		sp.Cores[ci].Jobs = append([]scenario.JobSpec(nil), sp.Cores[ci].Jobs...)
		for ji := range sp.Cores[ci].Jobs {
			sp.Cores[ci].Jobs[ji].Work *= scale
			sp.Cores[ci].Jobs[ji].ArrivalNs *= scale
			sp.Cores[ci].Jobs[ji].DepartNs *= scale
		}
	}
	return sp
}

// loadFixture builds the small two-application database the load
// topologies serve (the same fixture the microbenchmarks use).
func loadFixture() (*db.DB, error) {
	benches, opts, err := buildWorkload(true)
	if err != nil {
		return nil, err
	}
	return db.Build(benches[:2], opts)
}
