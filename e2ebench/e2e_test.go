package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestSelfTest runs every workload and its traced run at tiny sizes and
// checks what they print against BENCHMARK.json: every run prints every
// declared metric of its kind with its declared unit, the box record
// precedes the result, and every output check passes.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	unitsOf := func(ds []declared) map[string]string {
		m := make(map[string]string, len(ds))
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	e2eUnits, layerUnits := unitsOf(spec.EndToEnd), unitsOf(spec.PerLayer)
	for name := range scaled {
		if _, ok := e2eUnits[name]; !ok {
			t.Errorf("scaled metric %s is not an end-to-end metric of BENCHMARK.json", name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}

	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			var out, diag bytes.Buffer
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.5, trace: traced, tiny: true, work: t.TempDir()}
			if err := run(cfg, &out, &diag); err != nil {
				t.Fatalf("%s (traced %v): %v\n%s", w.Name, traced, err, diag.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "box {") {
				t.Errorf("%s (traced %v): no box record before the result:\n%s", w.Name, traced, out.String())
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s (traced %v): result line: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, diag.String())
			}
			want := e2eUnits
			if traced {
				want = layerUnits
			} else if len(lines) >= 2 {
				checkScaled(t, w.Name, strings.TrimPrefix(lines[len(lines)-2], "box "), res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics printed, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s is not declared in BENCHMARK.json", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s (traced %v): %s printed in %q, declared in %q", w.Name, traced, name, m.Unit, unit)
				}
			}
		}
	}
}

// checkScaled checks an end-to-end run's scaling: every scaled metric is
// its unscaled value in the box record times the speed, or divided by it
// for a rate.
func checkScaled(t *testing.T, workload, box string, res result) {
	t.Helper()
	var rec struct {
		Speed    float64            `json:"speed"`
		Unscaled map[string]float64 `json:"unscaled"`
	}
	if err := json.Unmarshal([]byte(box), &rec); err != nil {
		t.Errorf("%s: box record: %v", workload, err)
		return
	}
	if !(rec.Speed > 0) {
		t.Errorf("%s: speed %v in the box record", workload, rec.Speed)
		return
	}
	for name, dir := range scaled {
		raw, ok := rec.Unscaled[name]
		want := raw * math.Pow(rec.Speed, float64(dir))
		if got := res.Metrics[name].Value; !ok || math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: %s = %v, want the unscaled %v (recorded: %v) scaled by speed %v", workload, name, got, raw, ok, rec.Speed)
		}
	}
}
