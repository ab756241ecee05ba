// Command bfsbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports, scaled to the host machine.
//
// Usage:
//
//	bfsbench -exp all
//	bfsbench -exp fig8 -scale 18 -workers 8
//	bfsbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run ("+experimentNames()+", all)")
		scale   = flag.Int("scale", 0, "base Kronecker scale (default 16)")
		workers = flag.Int("workers", runtime.NumCPU(), "worker threads")
		sources = flag.Int("sources", 64, "multi-source batch size")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		seed    = flag.Uint64("seed", 0, "generator seed (0 = default)")
		list    = flag.Bool("list", false, "list experiments and exit")
		csvDir  = flag.String("csv", "", "also write the experiment's raw rows as CSV into this directory")
		engStat = flag.Bool("enginestats", false, "print the shared engine's pool/arena stats after the run")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Out:     os.Stdout,
		Workers: *workers,
		Scale:   *scale,
		Sources: *sources,
		Quick:   *quick,
		Seed:    *seed,
		CSVDir:  *csvDir,
	}
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bfsbench:", err)
		os.Exit(1)
	}
	if *csvDir != "" {
		fmt.Printf("CSV written to %s\n", *csvDir)
	}
	if *engStat {
		// The experiments run on the library's default engine; the stats
		// show how much state the arena recycled across the sweeps.
		st := core.DefaultEngine().Stats()
		fmt.Printf("engine: %d pooled workers, %d shells (%d bytes) free, %d/%d arena hits\n",
			st.PooledWorkers, st.FreeShells, st.FreeBytes, st.Hits, st.Hits+st.Misses)
	}
}

// experimentNames lists the experiment ids in presentation order.
func experimentNames() string {
	var names []string
	for _, e := range bench.Experiments() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}
