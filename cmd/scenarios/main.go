// Command scenarios runs declarative dynamic scenarios — per-core
// application queues with arrivals and departures, per-app QoS
// relaxations and mid-run QoS steps — against the simulation database,
// sweeping a whole scenario file in parallel. It can also emit scenario
// files from the Section IV-C churn generator so the four Figure 1
// scenario categories translate directly into multiprogrammed churn.
//
// Usage:
//
//	scenarios -f churn.json                     # run every spec in the file
//	scenarios -f churn.json -workers 4 -o out.json
//	scenarios -f churn.json -policies model3,greedy,brute   # policy shoot-out
//	scenarios -emit churn.json -scenario S1 -cores 4 -depth 3 -count 2
//	scenarios -emit trace.json -arrivals poisson -rate 6
//
// With -policies, every loaded spec is cloned across the named
// allocation policies (identical workload, different optimizer) and the
// report table compares them side by side. -emit generates churn files;
// -arrivals selects the arrival process (staggered waves, Poisson or
// diurnal trace-like load).
//
// The database is built over exactly the applications the specs
// schedule (and cached at -db), so small scenario files run in seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/scenario"
	"qosrm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenarios: ")
	file := flag.String("f", "", "scenario file to run (one spec object or an array)")
	dbPath := flag.String("db", "", "database snapshot path (built and saved if missing or stale; empty disables caching)")
	traceLen := flag.Int("tracelen", 16384, "instructions measured per phase of the database build")
	warmup := flag.Int("warmup", 4096, "cache warm-up prefix of the database build")
	workers := flag.Int("workers", 0, "parallel scenario runs (0 = one per scenario)")
	out := flag.String("o", "", "write the reports as JSON to this path")
	policies := flag.String("policies", "", "comma-separated allocation policies to sweep every spec across (e.g. model3,greedy,brute; empty runs specs as written)")

	emit := flag.String("emit", "", "emit a generated churn scenario file here instead of running")
	scen := flag.String("scenario", "S1", "churn generation: scenario category S1..S4")
	cores := flag.Int("cores", 4, "churn generation: core count (even)")
	depth := flag.Int("depth", 3, "churn generation: queued applications per core")
	count := flag.Int("count", 2, "churn generation: scenarios to emit")
	seed := flag.Int64("seed", 20, "churn generation: seed")
	horizon := flag.Float64("horizon", 2e9, "churn generation: arrival horizon in ns")
	arrivals := flag.String("arrivals", "staggered", "churn generation: arrival process (staggered, poisson, diurnal)")
	rate := flag.Float64("rate", 0, "churn generation: expected arrivals per core over the horizon for poisson/diurnal (0 = depth)")
	flag.Parse()

	switch {
	case *emit != "":
		if err := emitChurn(*emit, *scen, *cores, *depth, *count, *seed, *horizon, *arrivals, *rate); err != nil {
			log.Fatal(err)
		}
	case *file != "":
		if err := run(*file, *dbPath, *traceLen, *warmup, *workers, *out, *policies); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// emitChurn writes count generated churn scenarios as one JSON array.
func emitChurn(path, scen string, cores, depth, count int, seed int64, horizon float64, arrivals string, rate float64) error {
	var s workload.Scenario
	switch scen {
	case "S1":
		s = workload.Scenario1
	case "S2":
		s = workload.Scenario2
	case "S3":
		s = workload.Scenario3
	case "S4":
		s = workload.Scenario4
	default:
		return fmt.Errorf("unknown scenario category %q (want S1..S4)", scen)
	}
	proc, err := workload.ParseArrivalProcess(arrivals)
	if err != nil {
		return err
	}
	opt := workload.ChurnOptions{Process: proc, Rate: rate}
	specs := make([]scenario.Spec, count)
	for i := range specs {
		churn, err := workload.GenerateChurnOpts(s, cores, depth, seed+int64(i), opt)
		if err != nil {
			return err
		}
		specs[i] = scenario.FromChurn(fmt.Sprintf("%dCore-%s-%s%d", cores, s, proc, i+1), churn, horizon)
	}
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d scenarios to %s\n", count, path)
	return nil
}

// run sweeps every spec of a scenario file over one shared database,
// optionally expanded across allocation policies for a shoot-out.
func run(file, dbPath string, traceLen, warmup, workers int, out, policies string) error {
	specs, err := scenario.LoadFile(file)
	if err != nil {
		return err
	}
	if policies != "" {
		specs, err = scenario.PolicySweep(specs, strings.Split(policies, ","))
		if err != nil {
			return err
		}
	}
	if err := scenario.ValidateSpecs(specs); err != nil {
		return err
	}

	benches := scenario.Benchmarks(specs)
	start := time.Now()
	d, err := dbstore.LoadOrBuild(dbPath, benches, db.Options{TraceLen: traceLen, Warmup: warmup})
	if err != nil {
		return err
	}
	fmt.Printf("database over %d applications ready in %v\n", len(benches), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	reports, err := scenario.Sweep(d, specs, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%d scenarios swept in %v\n\n", len(specs), time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-28s %-5s %-7s %9s %9s %9s %6s %6s %s\n",
		"scenario", "rm", "policy", "saving", "viol", "budget", "jobs", "rm#", "time")
	for _, r := range reports {
		fmt.Printf("%-28s %-5s %-7s %8.2f%% %8.3f%% %8.3f%% %6d %6d %.3gs\n",
			r.Name, r.RM, r.Policy, r.Saving*100, r.ViolationRate*100, r.BudgetViolationRate*100,
			len(r.Jobs), r.RMCalled, r.TimeNs*1e-9)
	}

	if out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nreports written to %s\n", out)
	}
	return nil
}
