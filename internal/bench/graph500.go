package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Graph500Result is the outcome of the industry-standard benchmark flow the
// paper's evaluation is modeled on: 64 validated BFS searches over a
// Kronecker graph, reported as per-search TEPS statistics.
type Graph500Result struct {
	Scale        int
	Searches     int
	Validated    int
	HarmonicTEPS float64
	MedianTEPS   float64
	MinTEPS      float64
	MaxTEPS      float64
}

// Graph500 runs the benchmark flow with SMS-PBFS as the timed kernel (one
// search per key, the benchmark's model), validating every result against
// the official rules via the BFS-tree validator.
func Graph500(cfg Config) (Graph500Result, error) {
	workers := cfg.workers()
	scale := cfg.scale()
	g := specGraph(kronSpec(scale, cfg.seed()), workers)
	ec := metrics.NewEdgeCounter(g)
	keys := core.RandomSources(g, 64, cfg.seed()+61)

	eng := core.NewEngine()
	defer eng.Close()
	e := core.NewSMSPBFSEngine(g, core.BitState, core.Options{
		Workers: workers, Engine: eng, RecordLevels: true,
	})
	defer e.Close()
	pool, release := eng.BorrowPool(workers) // parent derivation runs on its own pool
	defer release()

	res := Graph500Result{Scale: scale, Searches: len(keys)}
	teps := make([]float64, 0, len(keys))
	for _, key := range keys {
		r := e.Run(key)
		teps = append(teps, metrics.GTEPS(ec.EdgesFor(key), r.Stats.Elapsed)*1e9)
		parents := core.DeriveParents(g, r.Levels, pool)
		if err := core.ValidateGraph500(g, key, r.Levels, parents); err != nil {
			return res, fmt.Errorf("search from %d failed validation: %w", key, err)
		}
		res.Validated++
	}

	sort.Float64s(teps)
	res.MinTEPS = teps[0]
	res.MaxTEPS = teps[len(teps)-1]
	res.MedianTEPS = teps[len(teps)/2]
	var invSum float64
	for _, t := range teps {
		if t > 0 {
			invSum += 1 / t
		}
	}
	if invSum > 0 {
		res.HarmonicTEPS = float64(len(teps)) / invSum
	}
	return res, nil
}

func runGraph500(cfg Config) ([][]string, error) {
	start := time.Now()
	res, err := Graph500(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Graph500 BFS benchmark flow (scale %d, %d searches, all validated: %d/%d)\n",
		res.Scale, res.Searches, res.Validated, res.Searches)
	fmt.Fprintf(w, "min_TEPS:           %.3e\n", res.MinTEPS)
	fmt.Fprintf(w, "median_TEPS:        %.3e\n", res.MedianTEPS)
	fmt.Fprintf(w, "max_TEPS:           %.3e\n", res.MaxTEPS)
	fmt.Fprintf(w, "harmonic_mean_TEPS: %.3e\n", res.HarmonicTEPS)
	fmt.Fprintf(w, "total runtime: %v\n", time.Since(start).Round(time.Millisecond))
	return nil, nil
}
