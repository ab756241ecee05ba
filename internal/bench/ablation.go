package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/label"
)

// AblationRow is one measured design alternative.
type AblationRow struct {
	Study   string
	Variant string
	Elapsed time.Duration
}

// AblationResult is the data behind the design-choice ablations that
// DESIGN.md calls out: the bottom-up early exit, the direction policy, the
// task split size, the SMS-PBFS state width, and the labeling scheme's
// effect with stealing disabled.
type AblationResult struct {
	Workers int
	Rows    []AblationRow
}

// Ablation measures each alternative on the standard striped Kronecker
// graph with a 64-source batch.
func Ablation(cfg Config) (AblationResult, error) {
	workers := cfg.workers()
	g := stripedKronecker(cfg.scale(), workers, cfg.seed())
	sources := core.RandomSources(g, 64, cfg.seed()+31)
	res := AblationResult{Workers: workers}
	add := func(study, variant string, elapsed time.Duration) {
		res.Rows = append(res.Rows, AblationRow{Study: study, Variant: variant, Elapsed: elapsed})
	}

	// 1. Bottom-up early exit (forced bottom-up so the code path dominates).
	add("bottom-up early exit", "on",
		core.MSPBFS(g, sources, core.Options{Workers: workers, Direction: core.BottomUpOnly}).Stats.Elapsed)
	add("bottom-up early exit", "off",
		core.MSPBFS(g, sources, core.Options{Workers: workers, Direction: core.BottomUpOnly, DisableEarlyExit: true}).Stats.Elapsed)

	// 2. Direction policy.
	for _, d := range []struct {
		name string
		dir  core.Direction
	}{{"heuristic", core.Auto}, {"top-down only", core.TopDownOnly}, {"bottom-up only", core.BottomUpOnly}} {
		add("direction policy", d.name,
			core.MSPBFS(g, sources, core.Options{Workers: workers, Direction: d.dir}).Stats.Elapsed)
	}

	// 3. Task split size (the scheduling-overhead / balance trade-off of
	// Section 4.2.1).
	for _, split := range []int{512, 2048, 8192, 65536} {
		add("task split size", fmt.Sprintf("%d vertices", split),
			core.MSPBFS(g, sources, core.Options{Workers: workers, SplitSize: split}).Stats.Elapsed)
	}

	// 4. SMS-PBFS state representation.
	src := sources[0]
	add("SMS-PBFS state", "bit",
		core.SMSPBFS(g, src, core.BitState, core.Options{Workers: workers}).Stats.Elapsed)
	add("SMS-PBFS state", "byte",
		core.SMSPBFS(g, src, core.ByteState, core.Options{Workers: workers}).Stats.Elapsed)

	// 5. Sequential MS-BFS top-down structure: the paper's two-phase
	// (aggregated) form vs the direct per-edge form of Then et al.
	add("MS-BFS top-down", "two-phase",
		core.MSBFS(g, sources, core.Options{Direction: core.TopDownOnly}).Stats.Elapsed)
	add("MS-BFS top-down", "direct",
		core.MSBFSDirect(g, sources, core.Options{Direction: core.TopDownOnly}).Stats.Elapsed)

	// 6. Work stealing vs static partitioning under the skew-friendly
	// ordered labeling (the scheduler's reason to exist).
	ordered, _ := label.Apply(kronecker(cfg.scale(), cfg.seed()), label.DegreeOrdered, label.Params{})
	oSources := core.RandomSources(ordered, 64, cfg.seed()+32)
	add("scheduling (ordered labels)", "work stealing",
		core.MSPBFS(ordered, oSources, core.Options{Workers: workers}).Stats.Elapsed)
	add("scheduling (ordered labels)", "static partitioning",
		core.MSPBFS(ordered, oSources, core.Options{Workers: workers, DisableStealing: true}).Stats.Elapsed)

	return res, nil
}

func runAblation(cfg Config) error {
	res, err := Ablation(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Ablations (%d workers, 64 sources, striped Kronecker scale %d)\n", res.Workers, cfg.scale())
	fmt.Fprintf(w, "%-30s %-22s %12s\n", "study", "variant", "elapsed")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-30s %-22s %12v\n", r.Study, r.Variant, r.Elapsed.Round(time.Microsecond))
	}
	return nil
}
