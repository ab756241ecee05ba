// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment has a structured runner returning
// the measured rows/series plus a printer that emits them in the same form
// the paper reports, so the output can be compared side by side with the
// published plots. EXPERIMENTS.md records that comparison.
//
// All experiments are scaled to the host they run on: graph scales and
// thread counts default to container-friendly values and can be raised via
// Config. Absolute numbers are not expected to match the paper's 60-core
// testbed; the shapes (who wins, by what factor, where crossovers fall)
// are.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// Config controls experiment sizing and output.
type Config struct {
	// Out receives the experiment's report; defaults to io.Discard when
	// nil (runners always also return structured results).
	Out io.Writer
	// Workers is the "full machine" worker count; <=0 selects
	// runtime.NumCPU().
	Workers int
	// Scale is the base Kronecker scale; <=0 selects 16 (65k vertices,
	// ~1M edges) or 12 in Quick mode.
	Scale int
	// Sources is the multi-source workload size; <=0 selects 64 (the
	// Graph500 batch the paper fixes in Section 5.3).
	Sources int
	// Quick shrinks sweeps for use in tests.
	Quick bool
	// Seed drives all graph generation and source selection.
	Seed uint64
	// CSVDir, when set, also receives each experiment's raw data rows as
	// <experiment>.csv: the rows of the run the report printed.
	CSVDir string
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

func (c Config) scale() int {
	if c.Scale > 0 {
		return c.Scale
	}
	if c.Quick {
		return 12
	}
	return 16
}

func (c Config) sources() int {
	if c.Sources > 0 {
		return c.Sources
	}
	return 64
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 20170321 // EDBT 2017 opening day
}

// Experiment ties an id (the paper's figure/table number) to its runner.
type Experiment struct {
	// Name is the experiment id used on the command line (fig2 ... table1).
	Name string
	// Title describes what the paper shows in it.
	Title string
	// Run executes the experiment, writes the report to cfg.Out and
	// returns the run's raw data rows, header first; nil for an
	// experiment without a CSV form.
	Run func(cfg Config) ([][]string, error)
}

// Experiments returns all registered experiments in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "CPU utilization of MS-BFS vs MS-PBFS as the number of sources increases", runFig2},
		{"fig3", "relative memory overhead vs graph size as thread count increases", runFig3},
		{"fig6", "visited neighbors per worker under static partitioning, per labeling", runFig6},
		{"fig7", "updated BFS vertex states per worker per iteration (ordered labeling)", runFig7},
		{"fig8", "runtime per BFS iteration under random/ordered/striped labeling", runFig8},
		{"fig9", "worker runtime skew per iteration under the three labelings", runFig9},
		{"fig10", "single-threaded throughput over graph sizes: Beamer variants vs SMS-PBFS", runFig10},
		{"fig11", "relative speedup as thread count increases", runFig11},
		{"fig12", "throughput at full parallelism as graph size increases", runFig12},
		{"table1", "graph suite properties and per-algorithm GTEPS", runTable1},
		{"ibfs", "MS-PBFS vs iBFS-style JFQ on the dense KG0-like graph", runIBFS},
		{"ablation", "design-choice ablations: early exit, direction policy, task size, state width", runAblation},
		{"numa", "modeled NUMA page locality with and without work stealing (Section 4.4)", runNUMA},
		{"graph500", "industry-standard Graph500 BFS flow with result validation", runGraph500},
		{"alphabeta", "direction-heuristic parameter sweep around the GAPBS defaults", runAlphaBeta},
	}
}

// Run executes the named experiment ("all" runs everything), writing each
// one's rows into cfg.CSVDir when it is set. Asking for the CSV of a single
// experiment without a CSV form is an error; "all" skips those.
func Run(name string, cfg Config) error {
	if name == "all" {
		for _, e := range Experiments() {
			fmt.Fprintf(cfg.out(), "==> %s: %s\n", e.Name, e.Title)
			if err := run(e, cfg, false); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(cfg.out())
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return run(e, cfg, true)
		}
	}
	names := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return fmt.Errorf("bench: unknown experiment %q (known: %v, plus \"all\")", name, names)
}

func run(e Experiment, cfg Config, needCSV bool) error {
	rows, err := e.Run(cfg)
	switch {
	case err != nil || cfg.CSVDir == "":
		return err
	case rows != nil:
		return writeCSV(cfg.CSVDir, e.Name, rows)
	case needCSV:
		return fmt.Errorf("bench: no CSV export for %q", e.Name)
	}
	return nil
}
