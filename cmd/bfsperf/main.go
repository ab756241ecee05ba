// Command bfsperf runs the pinned kernel-variant suite.
//
//	bfsperf run [-quick] [-out file] [-scale N] [-sources N] [-workers N]
//	            [-reps N] [-warmup N] [-seed N] [-handicap name=factor]
//	bfsperf list
//
// `run` executes the pinned scenario suite under the fixed measurement
// protocol and writes a versioned JSON report, by default BENCH_<sha>.json
// in the current directory — the repo's perf trajectory file. The report
// carries its own ratio rows, one scenario's median over another's; `run`
// exits nonzero when a gated ratio row fails (the paper's claim:
// mspbfs/auto-large below msbfs/sequential-large). Reports are never
// compared with each other. See docs/BENCHMARKS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:], os.Stdout)
	case "list":
		err = listCmd(os.Stdout)
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "bfsperf: unknown command %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsperf:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  bfsperf run [-quick] [-out file] [-scale N] [-sources N] [-workers N]
              [-reps N] [-warmup N] [-seed N] [-handicap name=factor] [-v]
  bfsperf list
`)
}

// handicapFlags collects repeated -handicap name=factor pairs.
type handicapFlags map[string]float64

func (h handicapFlags) String() string { return fmt.Sprint(map[string]float64(h)) }

func (h handicapFlags) Set(v string) error {
	name, factorStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=factor, got %q", v)
	}
	f, err := strconv.ParseFloat(factorStr, 64)
	if err != nil {
		return fmt.Errorf("factor in %q: %w", v, err)
	}
	h[name] = f
	return nil
}

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bfsperf run", flag.ContinueOnError)
	var (
		quick      = fs.Bool("quick", false, "small graph and few reps (the CI sizing)")
		out        = fs.String("out", "", "output path (default BENCH_<sha>.json)")
		scale      = fs.Int("scale", 0, "Kronecker scale (0: suite default)")
		largeScale = fs.Int("large-scale", 0, "Kronecker scale of the large fixture (0: suite default)")
		sources    = fs.Int("sources", 0, "multi-source workload size (0: 64)")
		workers    = fs.Int("workers", 0, "traversal workers (0: GOMAXPROCS)")
		reps       = fs.Int("reps", 0, "measured repetitions (0: suite default)")
		warmup     = fs.Int("warmup", 0, "warmup rounds (0: suite default)")
		seed       = fs.Uint64("seed", 0, "workload seed (0: suite default)")
		verbose    = fs.Bool("v", false, "progress output")
	)
	handicaps := handicapFlags{}
	fs.Var(handicaps, "handicap",
		"inflate a scenario's timings by a factor (name=factor, repeatable; ratio gate self-test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("run takes no positional arguments, got %v", fs.Args())
	}

	cfg := perf.Config{
		Quick:      *quick,
		Scale:      *scale,
		LargeScale: *largeScale,
		Sources:    *sources,
		Workers:    *workers,
		Reps:       *reps,
		Warmup:     *warmup,
		Seed:       *seed,
	}
	if len(handicaps) > 0 {
		cfg.Handicaps = handicaps
	}
	if *verbose {
		cfg.Out = stdout
	}
	report, err := perf.Run(cfg)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = report.DefaultFileName()
	}
	if err := report.WriteFile(path); err != nil {
		return err
	}
	report.WriteTable(stdout)
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return gate(report)
}

// errRatioGate marks a run whose report has a gated ratio row at or past
// its bound.
var errRatioGate = errors.New("ratio gate failed")

// gate fails a report with a gated ratio row at or past its bound.
func gate(report *perf.Report) error {
	var failed []string
	for _, q := range report.Ratios {
		if q.Failed() {
			failed = append(failed, fmt.Sprintf("%s = %.3f, bound < %g", q.Name(), q.Value, q.Bound))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%w: %s", errRatioGate, strings.Join(failed, "; "))
	}
	return nil
}

func listCmd(stdout io.Writer) error {
	for _, s := range perf.Scenarios() {
		fmt.Fprintf(stdout, "%-22s %s (unit: %s)\n", s.Name, s.Title, s.WorkUnit)
	}
	return nil
}
