// Command dbgen builds the simulation database — the equivalent of the
// paper's Sniper+McPAT sweeps over all core configurations, VF corners
// and LLC allocations for every benchmark phase — and saves it as a
// versioned binary snapshot: the file qosrmd cold-starts from and the
// -db cache the figures, inspect, rmsim and scenarios commands load.
//
// Usage:
//
//	dbgen [-o suite.qosdb] [-tracelen 65536] [-warmup 16384] [-workers N]
//	dbgen -load suite.qosdb -verify
//
// -load skips the build and reads an existing snapshot instead (it
// writes nothing); with -verify it checks the snapshot end to end —
// magic, format version, checksum, params hash against this binary's
// suite definition, and coverage of the full suite — and exits non-zero
// on any failure. Ctrl-C cancels an in-flight build promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbgen: ")
	snap := flag.String("o", "suite.qosdb", "snapshot output path of the build")
	load := flag.String("load", "", "read this snapshot instead of building")
	verify := flag.Bool("verify", false, "with -load: verify integrity, params hash and suite coverage")
	traceLen := flag.Int("tracelen", 65536, "instructions measured per phase")
	warmup := flag.Int("warmup", 16384, "cache warm-up instructions per phase")
	workers := flag.Int("workers", 0, "parallel builders (0 = GOMAXPROCS)")
	flag.Parse()

	if *load != "" {
		d, h, err := dbstore.Load(*load)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: format v%d, %d benchmarks / %d phases, tracelen %d, %d bytes, params %#x\n",
			*load, h.Version, h.Benchmarks, h.Phases, h.TraceLen, h.Bytes, h.ParamsHash)
		if *verify {
			// Load already proved magic/version/checksum/params hash;
			// coverage of the compiled-in suite is the remaining serving
			// precondition.
			if !d.Covers(bench.Suite()) {
				log.Fatalf("%s does not cover the full %d-benchmark suite", *load, len(bench.Suite()))
			}
			fmt.Printf("verified: checksum ok, params hash matches this binary, full suite covered\n")
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	d, err := db.BuildContext(ctx, bench.Suite(), db.Options{
		TraceLen: *traceLen,
		Warmup:   *warmup,
		Workers:  *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	phases := 0
	for _, b := range bench.Suite() {
		phases += len(b.Phases)
	}
	fmt.Printf("built %d benchmarks / %d phases in %v\n",
		len(bench.Suite()), phases, time.Since(start).Round(time.Millisecond))
	if err := dbstore.Save(*snap, d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote snapshot %s\n", *snap)
}
