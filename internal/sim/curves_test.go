package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// copyDB returns d read back through dbstore: a database no run has
// read yet, so it has no curve table.
func copyDB(t *testing.T, d *db.DB) *db.DB {
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

// TestCurveTableBound fills a table with more distinct keys than its cap,
// partly during a run: the table never holds more than tableCap curves,
// every lookup returns the curve stored under its key, and the run's
// result equals the reference engine's, which recomputes every curve.
func TestCurveTableBound(t *testing.T) {
	d := copyDB(t, sharedDB(t))
	tab := curvesFor(d)
	synthetic := func(i int) (curveKey, rm.Curve) {
		var cv rm.Curve
		cv.Energy[0] = float64(i)
		return curveKey{bench: "synthetic", alpha: float64(i), rm: rm.RM3}, cv
	}
	for i := 0; i < tableCap+100; i++ {
		k, cv := synthetic(i)
		if tab.load(k) != nil {
			t.Fatalf("key %d found before it was stored", i)
		}
		if got := tab.store(k, cv); *got != cv {
			t.Fatalf("key %d: store returned another curve", i)
		}
		if got := tab.load(k); got == nil || *got != cv {
			t.Fatalf("key %d: load after store returned %v", i, got)
		}
		if n := tab.len(); n > tableCap {
			t.Fatalf("table holds %d curves, cap %d", n, tableCap)
		}
	}
	if n := tab.len(); n != 100 {
		t.Fatalf("after a new epoch the table holds %d curves, want 100", n)
	}

	// Leave room for a few curves only, so the run itself crosses the cap.
	for i := tableCap + 100; tab.len() < tableCap-5; i++ {
		k, cv := synthetic(i)
		tab.store(k, cv)
	}
	w := apps(t, "mcf", "xalancbmk", "libquantum", "omnetpp")
	cfg := Config{RM: rm.RM3, Model: perfmodel.Model3}
	got, err := Run(d, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.len(); n > tableCap || n >= tableCap-5 {
		t.Fatalf("the run left %d curves; it should have crossed the cap %d", n, tableCap)
	}
	want, err := runStaticReference(d, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run across a new epoch diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestCurveTableReleasedWithDB drops a database a run has read and
// waits for the collector: its registry entry, and with it the table,
// must go.
func TestCurveTableReleasedWithDB(t *testing.T) {
	k := func() weak.Pointer[db.DB] {
		d := copyDB(t, sharedDB(t))
		if _, err := Run(d, apps(t, "mcf", "povray"), Config{RM: rm.RM3}); err != nil {
			t.Fatal(err)
		}
		if n, _ := CurveStats(d); n == 0 {
			t.Fatal("the run stored no curves")
		}
		return weak.Make(d)
	}()
	registered := func() bool {
		tables.Lock()
		defer tables.Unlock()
		return tables.m[k] != nil
	}
	for deadline := time.Now().Add(10 * time.Second); registered(); {
		if time.Now().After(deadline) {
			t.Fatal("the dropped database's curve table is still registered")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCurveTableWarmHitAllocationFree pins a warm curve refresh, for the
// model predictor and the perfect oracle, at zero allocations.
func TestCurveTableWarmHitAllocationFree(t *testing.T) {
	d := sharedDB(t)
	w := apps(t, "mcf")
	set := config.Baseline()
	rec, err := d.Stats("mcf", 0, set)
	if err != nil {
		t.Fatal(err)
	}
	tab := curvesFor(d)
	for _, cfg := range []Config{{RM: rm.RM3, Model: perfmodel.Model3}, {RM: rm.RM2, Perfect: true}} {
		c := core{app: w[0], setting: set, stats: rec, alpha: 1}
		c.refreshCurve(d, &cfg, tab)
		cold := c.curve
		if n := testing.AllocsPerRun(100, func() { c.refreshCurve(d, &cfg, tab) }); n != 0 {
			t.Errorf("perfect=%v: a warm refresh allocates %.0f times, want 0", cfg.Perfect, n)
		}
		if c.curve != cold {
			t.Errorf("perfect=%v: a warm refresh returned another curve", cfg.Perfect)
		}
	}
}
