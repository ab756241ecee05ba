// Command benchmark is the repository's one benchmark: five workloads that
// drive the BFS kernels, the engine, the coalescing daemon and the MVCC
// ingest layer from outside, through public functions only, and report
// end-to-end and per-layer metrics by name. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh                         all workloads, tracing off then on
//	bash benchmark/run.sh -aa                     the full set twice, compared against the bounds
//	bash benchmark/run.sh -flush 8ms              harness self-test: do the workloads separate the layers?
//	bash benchmark/run.sh -workload serve-sparse -seed 7 -seconds 10 -trace 0
//
// With -workload the command runs that one workload in this process and
// prints, as its last line, one JSON object {correct, attempted, failed,
// metrics}. Without it, it runs each workload as a child process of its
// own, one at a time, so that peak_rss_mb and the engine's arenas start
// clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	flush    time.Duration
	smoke    bool
	aa       bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 20170321, "seed of the graph, sources, query mix and arrival gaps")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a traced window")
	flag.DurationVar(&o.flush, "flush", 0, "self-test only: override the coalescer's flush deadline (0: the daemon's default)")
	flag.BoolVar(&o.smoke, "smoke", false, "scale 10, one 0.3 s window: checks the harness, measures nothing")
	flag.BoolVar(&o.aa, "aa", false, "run the full set twice and compare every end-to-end metric against its bound")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for results and traces")
	flag.Parse()

	var err error
	switch {
	case o.workload != "":
		var res result
		if res, err = runWorkload(o, os.Stdout); err == nil {
			err = printResult(os.Stdout, res)
		}
		if err == nil && !res.Correct {
			err = fmt.Errorf("%s: %d of %d operations failed or answered wrongly", o.workload, res.Failed, res.Attempted)
		}
	case o.aa:
		err = runAA(o)
	default:
		_, err = runSuite(o, "results.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
