// Package perf is the repo's pinned kernel-variant suite and its ratio
// gate.
//
// It runs a pinned suite of named scenarios — the paper's kernels
// (MS-PBFS under forced and automatic direction, SMS-PBFS in both state
// representations, sequential MS-BFS, Beamer's GAPBS baseline), the
// CSR build, the in-process cluster and the overlay scan — under a fixed
// measurement protocol: fixed-seed graphs from internal/gen (via the same
// memoized builders the figure experiments use), warmup iterations, then N
// repetitions taken interleaved across scenarios so drift and background
// noise spread evenly instead of biasing whichever scenario ran last.
//
// Each scenario is summarized by its median and MAD, and the whole run is
// written as a versioned JSON report (BENCH_<sha>.json) carrying an
// environment fingerprint and the report's ratio rows: one scenario's
// median over another's, such as the cost of the overlay or of
// distribution. Reports are never judged against each other, since a
// delta between two files measures the host as much as the code; a gated
// ratio row (the paper's claim, parallel MS-PBFS below sequential MS-BFS
// on the large fixture) fails the run instead. See docs/BENCHMARKS.md for
// the protocol and schema.
package perf

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// Config sizes a suite run. The zero value is the full suite; Quick
// selects the test/CI sizing. Fields <=0 take the documented defaults.
type Config struct {
	// Quick shrinks the graph and repetition counts for tests and CI.
	Quick bool
	// Workers is the traversal parallelism (<=0: GOMAXPROCS).
	Workers int
	// Scale is the Kronecker graph scale (<=0: 16, or 10 in Quick mode).
	Scale int
	// LargeScale is the Kronecker scale of the suite's larger pinned
	// fixture, driving the *-large scenarios that exercise the kernels
	// past LLC capacity (<=0: 18, or 13 in Quick mode). Must exceed Scale.
	LargeScale int
	// Sources is the multi-source workload size (<=0: 64, the Graph500
	// batch the paper fixes in Section 5.3).
	Sources int
	// Warmup is the per-scenario warmup iteration count (<=0: 3, Quick 1).
	Warmup int
	// Reps is the measured repetition count (<=0: 15, Quick 7).
	Reps int
	// Seed drives graph generation and source selection (0: 20170321, the
	// figure experiments' seed).
	Seed uint64
	// Handicaps artificially inflates named scenarios' recorded timings by
	// the given factor (e.g. 2 doubles them). It exists to validate the
	// ratio gate end to end — mspbfs/auto-large handicapped 8x must fail
	// the paper's-claim row — and is recorded in the report so a
	// handicapped run is never mistaken for a clean one.
	Handicaps map[string]float64
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Scale <= 0 {
		if c.Quick {
			c.Scale = 10
		} else {
			c.Scale = 16
		}
	}
	if c.LargeScale <= 0 {
		if c.Quick {
			c.LargeScale = 13
		} else {
			c.LargeScale = 18
		}
	}
	if c.Sources <= 0 {
		c.Sources = 64
	}
	if c.Warmup <= 0 {
		if c.Quick {
			c.Warmup = 1
		} else {
			c.Warmup = 3
		}
	}
	if c.Reps <= 0 {
		if c.Quick {
			c.Reps = 7
		} else {
			c.Reps = 15
		}
	}
	if c.Seed == 0 {
		c.Seed = 20170321
	}
	return c
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Work units a scenario can report; rate_median in the JSON row is
// WorkPerOp/median in these units per second.
const (
	UnitEdgesTraversed = "edges-traversed" // Graph500 accounting; GTEPS applies
	UnitEdgesBuilt     = "edges-built"     // CSR construction input edges
)

// Sample is one measured scenario iteration.
type Sample struct {
	// Elapsed is the iteration's wall time.
	Elapsed time.Duration
	// Work is the work performed, in the scenario's WorkUnit.
	Work int64
	// Stats carries the traversal's RunStat when the scenario has one; the
	// last repetition's summary is exported into the JSON row.
	Stats *metrics.RunStat
}

// Scenario is one named, pinned benchmark. Names are part of the JSON
// schema — the ratio rows and the trajectory name them — so renames are
// schema changes.
type Scenario struct {
	Name     string
	Title    string
	WorkUnit string
	run      func(e *suiteEnv) Sample
}

// Scenarios returns the pinned suite in its fixed execution order.
func Scenarios() []Scenario {
	return []Scenario{
		{"mspbfs/topdown", "MS-PBFS, top-down only (Listing 1)", UnitEdgesTraversed, runMSPBFSTopDown},
		{"mspbfs/bottomup", "MS-PBFS, bottom-up only (Listing 2)", UnitEdgesTraversed, runMSPBFSBottomUp},
		{"mspbfs/auto", "MS-PBFS, alpha/beta direction switching", UnitEdgesTraversed, runMSPBFSAuto},
		{"smspbfs/bit", "SMS-PBFS, bit state representation", UnitEdgesTraversed, runSMSPBFSBit},
		{"smspbfs/byte", "SMS-PBFS, byte state representation", UnitEdgesTraversed, runSMSPBFSByte},
		{"msbfs/sequential", "sequential MS-BFS (Then et al.)", UnitEdgesTraversed, runMSBFSSeq},
		{"beamer/gapbs", "Beamer direction-optimizing BFS, GAPBS variant", UnitEdgesTraversed, runBeamerGAPBS},
		{"csr/build", "sort-free CSR construction from an edge list", UnitEdgesBuilt, runCSRBuild},
		{"cluster/inproc", "sharded MS-PBFS over a 2-shard loopback cluster", UnitEdgesTraversed, runClusterInproc},
		{"dyn/overlay-scan", "MS-PBFS auto with a resident dynamic-delta overlay", UnitEdgesTraversed, runDynOverlayScan},
		{"mspbfs/auto-large", "MS-PBFS direction switching on the large fixture", UnitEdgesTraversed, runMSPBFSAutoLarge},
		{"msbfs/sequential-large", "sequential MS-BFS on the large fixture", UnitEdgesTraversed, runMSBFSSeqLarge},
	}
}

// ScenarioNames returns the suite's names in order (for CLI listing and
// handicap validation).
func ScenarioNames() []string {
	ss := Scenarios()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

func findScenario(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("perf: unknown scenario %q (known: %v)", name, ScenarioNames())
}
