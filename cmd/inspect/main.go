// Command inspect dumps one application's view of the configuration
// space: the database's ground-truth behaviour, the ATD observations,
// and the local optimisation's energy curve E*(w) with the chosen
// c*(w)/f*(w) settings under each resource manager — the quantities the
// paper's Figure 3 pipeline passes between its stages.
//
// Usage:
//
//	inspect -app mcf [-phase 0] [-model 3] [-db suite.qosdb]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	app := flag.String("app", "mcf", "application to inspect")
	phase := flag.Int("phase", 0, "phase index")
	model := flag.Int("model", 3, "performance model for the RM curves (1-3)")
	dbPath := flag.String("db", "suite.qosdb", "database snapshot path (built and saved if missing or stale; see cmd/dbgen)")
	flag.Parse()

	b, err := bench.ByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	if *phase < 0 || *phase >= len(b.Phases) {
		log.Fatalf("%s has phases 0..%d", b.Name, len(b.Phases)-1)
	}
	if *model < 1 || *model > 3 {
		log.Fatalf("model must be 1-3")
	}
	d, err := dbstore.LoadOrBuild(*dbPath, bench.Suite(), db.Options{})
	if err != nil {
		log.Fatal(err)
	}

	cat, m, err := d.Classify(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s phase %d/%d (weight %.2f) — category %s (intended %s)\n",
		b.Name, *phase, len(b.Phases), b.Phases[*phase].Weight, cat, b.Category)
	fmt.Printf("MPKI at 4/8/12 ways: %.2f / %.2f / %.2f   MLP on S/M/L: %.2f / %.2f / %.2f\n\n",
		m.MPKI4, m.MPKI8, m.MPKI12, m.MLPS, m.MLPM, m.MLPL)

	base := config.Baseline()
	st, err := d.Stats(b.Name, *phase, base)
	if err != nil {
		log.Fatal(err)
	}
	n := st.Instructions
	fmt.Printf("baseline (%s): TPI %.3f ns (base %.3f, branch %.3f, cache %.3f, mem %.3f)\n",
		base, st.TPI(), st.BaseNs/n, st.BranchNs/n, st.CacheNs/n, st.MemNs/n)
	fmt.Printf("LLC: %.1f accesses/kinstr, %.1f misses/kinstr, %.1f writebacks/kinstr, MLP %.2f\n\n",
		st.LLCAccesses/n*1000, st.LLCMisses/n*1000, st.Writebacks/n*1000, st.MLP)

	fmt.Println("ground truth across ways (M core, 2 GHz):")
	fmt.Printf("  %4s %10s %10s %10s %10s\n", "w", "TPI (ns)", "MPKI", "WB/ki", "EPI (nJ)")
	for w := config.MinWays; w <= config.MaxWays; w++ {
		s, err := d.Stats(b.Name, *phase, config.Setting{Core: config.SizeM, Freq: config.BaseFreqIdx, Ways: w})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d %10.3f %10.2f %10.2f %10.3f\n",
			w, s.TPI(), s.LLCMisses/s.Instructions*1000, s.Writebacks/s.Instructions*1000,
			s.ActualEnergyJ(config.Setting{Core: config.SizeM, Freq: config.BaseFreqIdx, Ways: w}, 1)*1e9)
	}

	fmt.Printf("\nlocal optimisation curves (Model%d, statistics from the baseline interval):\n", *model)
	pred := &rm.ModelPredictor{
		Stats: perfmodel.FromDB(st, base),
		Model: perfmodel.Kind(*model),
	}
	for _, kind := range rm.Kinds {
		cv := rm.Localize(pred, kind, rm.Options{})
		fmt.Printf("  %s: ", kind)
		for wi, e := range cv.Energy {
			w := config.MinWays + wi
			if w%2 != 0 {
				continue
			}
			if math.IsInf(e, 1) {
				fmt.Printf("w%-2d:   --      ", w)
			} else {
				fmt.Printf("w%-2d:%5.2fnJ %s/%.2f  ", w, e*1e9, cv.Pick[wi].Core, cv.Pick[wi].FGHz())
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(-- = allocation infeasible under the QoS constraint; the pick shows c*(w)/f*(w))")
}
