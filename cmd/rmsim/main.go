// Command rmsim co-simulates one workload under a resource manager and
// reports energy, savings versus the baseline-keeping idle manager, and
// per-application QoS statistics.
//
// Usage:
//
//	rmsim -apps mcf,povray [-rm RM3] [-model 3] [-perfect] [-scale 2048]
//	      [-interval 100000000] [-db suite.qosdb] [-trace]
//	rmsim -scenario 1 -cores 4 [-seed 20] ...   # generated workload
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
	"qosrm/internal/sim"
	workloadpkg "qosrm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rmsim: ")
	apps := flag.String("apps", "povray,mcf", "comma-separated application list (one per core)")
	scenario := flag.Int("scenario", 0, "generate the workload from scenario 1-4 instead of -apps")
	cores := flag.Int("cores", 4, "core count for -scenario workloads")
	wseed := flag.Int64("seed", 20, "workload generation seed for -scenario")
	kindStr := flag.String("rm", "RM3", "resource manager: Idle, RM1, RM2 or RM3")
	model := flag.Int("model", 3, "performance model (1, 2 or 3)")
	perfect := flag.Bool("perfect", false, "use the perfect oracle instead of an online model")
	scale := flag.Int64("scale", 2048, "instruction-count scale divisor (1 = paper scale)")
	interval := flag.Int64("interval", 0, "RM interval in instructions (0 = paper's 100M)")
	dbPath := flag.String("db", "suite.qosdb", "database snapshot path (built and saved if missing or stale; see cmd/dbgen)")
	traceEvents := flag.Bool("trace", false, "print interval-boundary events")
	flag.Parse()

	var kind rm.Kind
	switch strings.ToUpper(*kindStr) {
	case "IDLE":
		kind = rm.Idle
	case "RM1":
		kind = rm.RM1
	case "RM2":
		kind = rm.RM2
	case "RM3":
		kind = rm.RM3
	default:
		log.Fatalf("unknown resource manager %q", *kindStr)
	}
	if *model < 1 || *model > 3 {
		log.Fatalf("model must be 1, 2 or 3, got %d", *model)
	}

	var apps2 []*bench.Benchmark
	var label string
	if *scenario != 0 {
		if *scenario < 1 || *scenario > 4 {
			log.Fatalf("scenario must be 1-4, got %d", *scenario)
		}
		wls, err := workloadpkg.Generate(workloadpkg.Scenario(*scenario), *cores, 1, *wseed)
		if err != nil {
			log.Fatal(err)
		}
		apps2 = wls[0].Apps
		names := make([]string, len(apps2))
		for i, a := range apps2 {
			names[i] = a.Name
		}
		label = strings.Join(names, ",")
	} else {
		for _, name := range strings.Split(*apps, ",") {
			b, err := bench.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			apps2 = append(apps2, b)
		}
		label = *apps
	}
	workload := apps2

	d, err := dbstore.LoadOrBuild(*dbPath, bench.Suite(), db.Options{})
	if err != nil {
		log.Fatal(err)
	}

	cfg := sim.Config{
		RM:       kind,
		Model:    perfmodel.Kind(*model),
		Perfect:  *perfect,
		Scale:    *scale,
		Interval: *interval,
	}
	if *traceEvents {
		cfg.Trace = func(e sim.Event) {
			fmt.Printf("t=%.3fms core%d %-10s interval %d phase %d at %s\n",
				e.TimeNs/1e6, e.Core, e.Bench, e.Interval, e.Phase, e.Setting)
		}
	}

	idleCfg := cfg
	idleCfg.RM = rm.Idle
	idleCfg.Trace = nil
	idle, err := sim.Run(d, workload, idleCfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(d, workload, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (%d cores)\n", label, len(workload))
	fmt.Printf("manager:  %s", kind)
	if *perfect {
		fmt.Printf(" (perfect model)")
	} else if kind != rm.Idle {
		fmt.Printf(" (Model%d)", *model)
	}
	fmt.Println()
	fmt.Printf("baseline energy: %.4f J   time: %.2f ms\n", idle.EnergyJ, idle.TimeNs/1e6)
	fmt.Printf("managed energy:  %.4f J   time: %.2f ms   RM invocations: %d\n",
		res.EnergyJ, res.TimeNs/1e6, res.RMCalled)
	fmt.Printf("energy saving:   %.2f%%\n", (1-res.EnergyJ/idle.EnergyJ)*100)
	fmt.Printf("uncore energy:   %.4f J\n", res.UncoreJ)
	fmt.Println("per-application:")
	for i, a := range res.Apps {
		fmt.Printf("  core%d %-12s energy %.4f J  finish %.2f ms  intervals %d  violations %d (EV %.2f%%, max %.2f%%)\n",
			i, a.Bench, a.EnergyJ, a.FinishNs/1e6, a.Intervals, a.Violations,
			avg(a.ViolationSum, a.Violations)*100, a.MaxViolation*100)
	}
}

func avg(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
