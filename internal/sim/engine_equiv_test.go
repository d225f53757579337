package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// The cross-seed property tests of the engine unification: the one
// event-driven engine behind Run/RunDynamic must reproduce the retained
// seed loops (reference_test.go) bit for bit on every workload the old
// engines could express — static mixes, multiprogrammed churn with
// arrivals/departures, heterogeneous per-app alphas and mid-run QoS
// steps — across seeds and manager configurations. This is the same
// contract pattern as db.BuildReference / GlobalOptimizeReference, one
// level up.

// testApps are the applications of the shared test database.
var testAppNames = []string{"mcf", "povray", "bwaves", "xalancbmk", "libquantum", "omnetpp"}

func equivConfigs() []Config {
	return []Config{
		{RM: rm.RM3, Model: perfmodel.Model3},
		{RM: rm.RM2, Model: perfmodel.Model1},
		{RM: rm.RM3, Perfect: true},
		{RM: rm.RM3, Model: perfmodel.Model3, Alpha: 1.2},
		{RM: rm.RM3, Model: perfmodel.Model3, Policy: rm.PolicyGreedy},
		{RM: rm.RM1, Model: perfmodel.Model2, DisableOverheads: true},
		{RM: rm.Idle},
	}
}

func TestEngineMatchesStaticReferenceAcrossSeeds(t *testing.T) {
	d := sharedDB(t)
	cfgs := equivConfigs()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		names := make([]string, n)
		for i := range names {
			names[i] = testAppNames[rng.Intn(len(testAppNames))]
		}
		cfg := cfgs[int(seed)%len(cfgs)]
		w := apps(t, names...)

		want, err := runStaticReference(d, w, cfg)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Run(d, w, cfg)
		if err != nil {
			t.Fatalf("seed %d: unified: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (%v, cfg %+v): unified engine diverges from the seed static loop:\n got %+v\nwant %+v",
				seed, names, cfg, got, want)
		}
	}
}

// randomDynamic builds a seeded random churn description over the test
// database: 2-4 cores, 1-3 queued jobs each with staggered arrivals,
// bounded work, occasional forced departures and heterogeneous per-app
// alphas, plus 0-2 mid-run QoS steps.
func randomDynamic(t *testing.T, rng *rand.Rand) Dynamic {
	t.Helper()
	const fullWork = 100_000_000 * 2048 // one interval of paper-scale work at Scale 2048
	alphas := []float64{0, 0, 1.1, 1.3}
	n := 2 + rng.Intn(3)
	dyn := Dynamic{Queues: make([]Queue, n)}
	for c := 0; c < n; c++ {
		depth := 1 + rng.Intn(3)
		jobs := make([]Job, depth)
		arrival := 0.0
		for j := range jobs {
			jobs[j] = Job{
				App:       apps(t, testAppNames[rng.Intn(len(testAppNames))])[0],
				Alpha:     alphas[rng.Intn(len(alphas))],
				ArrivalNs: arrival,
				Work:      float64(2+rng.Intn(6)) * fullWork,
			}
			if rng.Float64() < 0.25 {
				jobs[j].DepartNs = arrival + 2.5e8*(1+rng.Float64())
			}
			arrival += 4e8 * rng.Float64()
		}
		dyn.Queues[c] = Queue{Jobs: jobs}
	}
	for s := rng.Intn(3); s > 0; s-- {
		core := -1
		if rng.Float64() < 0.5 {
			core = rng.Intn(n)
		}
		dyn.Steps = append(dyn.Steps, QoSStep{
			AtNs:  2e9 * rng.Float64(),
			Core:  core,
			Alpha: 1 + 0.4*rng.Float64(),
		})
	}
	return dyn
}

func TestEngineMatchesDynamicReferenceAcrossSeeds(t *testing.T) {
	d := sharedDB(t)
	cfgs := equivConfigs()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		dyn := randomDynamic(t, rng)
		cfg := cfgs[int(seed)%len(cfgs)]

		want, err := runDynamicReference(d, dyn, cfg)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := RunDynamicWS(d, dyn, cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: unified: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (cfg %+v): unified engine diverges from the seed dynamic loop:\n got %+v\nwant %+v",
				seed, cfg, got, want)
		}
	}
}

// TestPolicyNameMatchesLegacyFlags pins the Config.Policy plumbing to
// the optimizer selection the seed engines hard-wired by default: the
// "model3" policy reproduces the empty default, the workspace reduction
// path, bit for bit, through both entry points. (The greedy policy is
// pinned against the seed loops' greedy call sites by the cross-seed
// tests above.)
func TestPolicyNameMatchesLegacyFlags(t *testing.T) {
	d := sharedDB(t)
	w := apps(t, "mcf", "xalancbmk")
	dyn := randomDynamic(t, rand.New(rand.NewSource(7)))

	for _, tc := range []struct {
		name   string
		policy string
		legacy Config
	}{
		{"model3-default", rm.PolicyModel3, Config{RM: rm.RM3, Model: perfmodel.Model3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			named := tc.legacy
			named.Policy = tc.policy

			wantS, err := Run(d, w, tc.legacy)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := Run(d, w, named)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("static: policy %q diverges from the legacy flags", tc.policy)
			}

			wantD, err := RunDynamicWS(d, dyn, tc.legacy, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := RunDynamicWS(d, dyn, named, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Errorf("dynamic: policy %q diverges from the legacy flags", tc.policy)
			}
		})
	}
}
