// Command figures regenerates every table and figure of the paper's
// evaluation from the simulation database.
//
// Usage:
//
//	figures -exp all                       # everything
//	figures -exp table1,table2,fig1        # a subset
//	figures -exp fig6 -scale 4096 -per 3   # faster main evaluation
//	figures -exp all -json report.json     # machine-readable results
//
// Experiments: table1, table2, fig1, fig2, fig4, fig5, fig6, fig7,
// fig8, fig9, ablation (design-choice sensitivity studies), validate
// (partition-isolation check of the replay methodology).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	expList := flag.String("exp", "all", "comma-separated experiments or 'all'")
	jsonPath := flag.String("json", "", "also write a machine-readable report of all experiments to this path")
	dbPath := flag.String("db", "suite.qosdb", "database snapshot path (built and saved if missing or stale; see cmd/dbgen)")
	traceLen := flag.Int("tracelen", 65536, "instructions measured per phase")
	scale := flag.Int64("scale", 2048, "co-simulation instruction-count divisor")
	per := flag.Int("per", 6, "workloads per scenario and core count")
	seed := flag.Int64("seed", 20, "workload generation seed")
	flag.Parse()

	d, err := dbstore.LoadOrBuild(*dbPath, bench.Suite(), db.Options{TraceLen: *traceLen})
	if err != nil {
		log.Fatal(err)
	}
	ctx := experiments.NewContext(d)
	ctx.Scale = *scale
	ctx.PerScenario = *per
	ctx.Seed = *seed

	all := []string{"table1", "table2", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablation", "validate"}
	var wanted []string
	if *expList == "all" {
		wanted = all
	} else {
		for _, e := range strings.Split(*expList, ",") {
			wanted = append(wanted, strings.TrimSpace(strings.ToLower(e)))
		}
	}

	// fig7 and fig8 share one sweep; compute lazily once.
	var f7 *experiments.Fig7Result
	getF7 := func() *experiments.Fig7Result {
		if f7 == nil {
			var err error
			f7, err = ctx.Fig7()
			if err != nil {
				log.Fatal(err)
			}
		}
		return f7
	}

	for _, e := range wanted {
		start := time.Now()
		switch e {
		case "table1":
			experiments.RenderTableI(os.Stdout)
		case "table2":
			rows, err := ctx.TableII()
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderTableII(os.Stdout, rows)
		case "fig1":
			experiments.RenderFig1(os.Stdout, ctx.Fig1())
		case "fig2":
			rows, err := ctx.Fig2()
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderFig2(os.Stdout, rows)
		case "fig4":
			experiments.RenderFig4(os.Stdout, experiments.Fig4())
		case "fig5":
			r, err := ctx.Fig5(16)
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderFig5(os.Stdout, r)
		case "fig6":
			r, err := ctx.Fig6()
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderFig6(os.Stdout, r)
		case "fig7":
			experiments.RenderFig7(os.Stdout, getF7())
		case "fig8":
			experiments.RenderFig8(os.Stdout, getF7())
		case "fig9":
			r, err := ctx.Fig9()
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderFig9(os.Stdout, r)
		case "ablation":
			bits, err := ctx.AblationIndexBits(nil)
			if err != nil {
				log.Fatal(err)
			}
			sampling, err := ctx.AblationSampling(nil)
			if err != nil {
				log.Fatal(err)
			}
			alphas, err := ctx.AblationAlpha(nil)
			if err != nil {
				log.Fatal(err)
			}
			intervals, err := ctx.AblationInterval(nil)
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderAblation(os.Stdout, bits, sampling, alphas, intervals)
			gopt, err := ctx.AblationGlobalOpt()
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderGlobalOptAblation(os.Stdout, gopt)
		case "validate":
			rows, err := ctx.ValidateReplay("mcf", "xalancbmk", 20000)
			if err != nil {
				log.Fatal(err)
			}
			experiments.RenderValidate(os.Stdout, rows)
		default:
			log.Fatalf("unknown experiment %q (want one of %s)", e, strings.Join(all, ", "))
		}
		fmt.Printf("[%s done in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}

	if *jsonPath != "" {
		start := time.Now()
		report, err := ctx.FullReport()
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[report written to %s in %v]\n", *jsonPath, time.Since(start).Round(time.Millisecond))
	}
}
