package scenario

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/rm"
	"qosrm/internal/sim"
)

// readBack returns a copy of d read back through dbstore: the same
// records at new addresses, with a curve table that starts empty.
func readBack(t *testing.T, d *db.DB) *db.DB {
	t.Helper()
	var buf bytes.Buffer
	if err := dbstore.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	c, _, err := dbstore.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tableBatch mixes everything a curve key carries: managers, models,
// the perfect oracle, per-app and stepped alphas, core counts, policies
// and way donation.
func tableBatch() []Spec {
	specs := []Spec{
		testSpec("two"), testSpec("two-rm1"), testSpec("two-rm2-model1"),
		wideSpec("four-perfect"), wideSpec("four-donate"), testSpec("two-greedy"),
		testSpec("two-brute"), wideSpec("four-alpha"), testSpec("two-again"),
	}
	specs[1].RM = "RM1"
	specs[2].RM, specs[2].Model = "RM2", "Model1"
	specs[3].Perfect = true
	specs[4].DonateIdleWays = true
	specs[5].Policy = rm.PolicyGreedy
	specs[6].Policy = rm.PolicyBrute
	specs[7].Alpha = 1.3
	return specs
}

// oneShot runs each spec on its own copy of d, so no curve comes from a
// table another run filled.
func oneShot(t *testing.T, d *db.DB, specs []Spec) []*Report {
	t.Helper()
	want := make([]*Report, len(specs))
	for i := range specs {
		rep, err := Run(readBack(t, d), &specs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	return want
}

// TestSweepSharesCurveTable sweeps one database again and again with
// 1, 2, 3 and 8 workers. Every report must equal a one-shot run on a
// copy whose table starts empty, so no result depends on which worker
// filled an entry. The first sweep computes each curve once; no later
// sweep adds or computes a curve.
func TestSweepSharesCurveTable(t *testing.T) {
	d := readBack(t, sharedDB(t))
	specs := tableBatch()
	want := oneShot(t, d, specs)
	first := true
	var curves int
	var computed int64
	for _, workers := range []int{1, 2, 3, 8} {
		for pass := 0; pass < 2; pass++ {
			reports, err := Sweep(d, specs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				if !reflect.DeepEqual(reports[i], want[i]) {
					t.Errorf("workers %d pass %d: spec %s differs from a one-shot run", workers, pass, specs[i].Name)
				}
			}
			n, c := sim.CurveStats(d)
			if first {
				if n == 0 || c != int64(n) {
					t.Fatalf("first sweep: %d curves from %d Localize calls, want one call per curve", n, c)
				}
				curves, computed, first = n, c, false
			} else if n != curves || c != computed {
				t.Errorf("workers %d pass %d: %d curves and %d calls, want %d and %d", workers, pass, n, c, curves, computed)
			}
		}
	}
}

// TestConcurrentRunsShareCurveTable runs sweeps and single scenarios on
// one database at once, for the race detector: every run reads and
// fills the same table.
func TestConcurrentRunsShareCurveTable(t *testing.T) {
	d := readBack(t, sharedDB(t))
	specs := tableBatch()
	want := oneShot(t, d, specs)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			reports, err := Sweep(d, specs, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range specs {
				if !reflect.DeepEqual(reports[i], want[i]) {
					t.Errorf("concurrent sweep: spec %s differs from a one-shot run", specs[i].Name)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := len(specs) - 1; i >= 0; i-- {
				rep, err := Run(d, &specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(rep, want[i]) {
					t.Errorf("concurrent run: spec %s differs from a one-shot run", specs[i].Name)
				}
			}
		}()
	}
	wg.Wait()
}
