package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// gtepsOf runs fn over the sources and converts to GTEPS with Graph500 edge
// accounting.
func gtepsOf(ec *metrics.EdgeCounter, sources []int, elapsed time.Duration) float64 {
	return metrics.GTEPS(ec.EdgesForAll(sources), elapsed)
}

// Fig10Row is one (scale, algorithm) throughput point of the sequential
// comparison.
type Fig10Row struct {
	Scale     int
	Algorithm string
	GTEPS     float64
}

// Fig10Result is the data behind Figure 10.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 compares single-threaded throughput of the Beamer variants against
// SMS-PBFS (bit and byte) over a range of Kronecker graph sizes.
func Fig10(cfg Config) (Fig10Result, error) {
	scales := []int{12, 13, 14, 15, 16}
	sourcesPerScale := 4
	if cfg.Quick {
		scales = []int{10, 11, 12}
		sourcesPerScale = 2
	}
	var res Fig10Result
	for _, scale := range scales {
		g := specGraph(kronSpec(scale, cfg.seed()), 1)
		ec := metrics.NewEdgeCounter(g)
		sources := core.RandomSources(g, sourcesPerScale, cfg.seed()+uint64(scale))
		opt := core.Options{Workers: 1}

		variants := []struct {
			name string
			run  func(src int) time.Duration
		}{
			{"Beamer (GAPBS)", func(src int) time.Duration { return core.Beamer(g, src, core.BeamerGAPBS, opt).Stats.Elapsed }},
			{"Beamer (sparse)", func(src int) time.Duration { return core.Beamer(g, src, core.BeamerSparse, opt).Stats.Elapsed }},
			{"Beamer (dense)", func(src int) time.Duration { return core.Beamer(g, src, core.BeamerDense, opt).Stats.Elapsed }},
			{"SMS-PBFS (bit)", func(src int) time.Duration { return core.SMSPBFS(g, src, core.BitState, opt).Stats.Elapsed }},
			{"SMS-PBFS (byte)", func(src int) time.Duration { return core.SMSPBFS(g, src, core.ByteState, opt).Stats.Elapsed }},
		}
		for _, v := range variants {
			var total time.Duration
			for _, src := range sources {
				total += v.run(src)
			}
			res.Rows = append(res.Rows, Fig10Row{
				Scale:     scale,
				Algorithm: v.name,
				GTEPS:     gtepsOf(ec, sources, total),
			})
		}
	}
	return res, nil
}

func runFig10(cfg Config) ([][]string, error) {
	res, err := Fig10(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 10: single-threaded throughput (GTEPS) over Kronecker graph sizes\n")
	fmt.Fprintf(w, "%-18s", "algorithm\\scale")
	printed := map[int]bool{}
	var scales []int
	for _, r := range res.Rows {
		if !printed[r.Scale] {
			printed[r.Scale] = true
			scales = append(scales, r.Scale)
			fmt.Fprintf(w, " %8d", r.Scale)
		}
	}
	fmt.Fprintln(w)
	byAlgo := map[string][]float64{}
	var order []string
	for _, r := range res.Rows {
		if _, ok := byAlgo[r.Algorithm]; !ok {
			order = append(order, r.Algorithm)
		}
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r.GTEPS)
	}
	for _, a := range order {
		fmt.Fprintf(w, "%-18s", a)
		for _, v := range byAlgo[a] {
			fmt.Fprintf(w, " %8.3f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper: SMS-PBFS overtakes Beamer from ~2^20 vertices as caches stop covering the state.\n")
	return res.csv(), nil
}

// Fig11Row is one (threads, algorithm) speedup point.
type Fig11Row struct {
	Threads   int
	Algorithm string
	Elapsed   time.Duration
	Speedup   float64 // relative to the same algorithm at 1 thread
}

// Fig11Result is the data behind Figure 11.
type Fig11Result struct {
	Rows []Fig11Row
}

// fig11Algorithms returns the algorithm set of the thread-scaling
// comparison. sources is sized so MS-BFS has enough 64-source batches for
// every thread count, as in the paper ("three times as many sources").
func fig11Algorithms(g *graph.Graph, sources []int) []struct {
	name string
	run  func(threads int) time.Duration
} {
	return []struct {
		name string
		run  func(threads int) time.Duration
	}{
		{"MS-BFS", func(t int) time.Duration {
			return core.MSBFSPerCore(g, sources, core.Options{Workers: t}).Stats.Elapsed
		}},
		{"MS-PBFS", func(t int) time.Duration {
			return core.MSPBFS(g, sources, core.Options{Workers: t}).Stats.Elapsed
		}},
		{"MS-PBFS (sequential)", func(t int) time.Duration {
			// One single-worker MS-PBFS instance per thread, executed like
			// MS-BFS: tests the engine's data structure changes without
			// intra-batch parallelism.
			return core.MSPBFSPerSocket(g, sources, t, core.Options{Workers: t}).Stats.Elapsed
		}},
		{"MS-PBFS (one per socket)", func(t int) time.Duration {
			sockets := 2
			if t < 2 {
				sockets = 1
			}
			return core.MSPBFSPerSocket(g, sources, sockets, core.Options{Workers: t}).Stats.Elapsed
		}},
		{"SMS-PBFS (byte)", func(t int) time.Duration {
			return core.SMSPBFSAll(g, sources[:min(len(sources), 8)], core.ByteState, core.Options{Workers: t}).Stats.Elapsed
		}},
	}
}

// Fig11 measures relative speedup as the worker count grows, with the
// amount of work held constant.
func Fig11(cfg Config) (Fig11Result, error) {
	maxThreads := cfg.workers() * 2 // the paper's Hyper-Thread region
	threadSweep := []int{}
	for t := 1; t <= maxThreads; t *= 2 {
		threadSweep = append(threadSweep, t)
	}
	if cfg.Quick {
		threadSweep = []int{1, 2}
	}

	g := specGraph(kronSpec(cfg.scale(), cfg.seed()), cfg.workers())
	// Enough batches for the largest per-core run.
	numSources := 64 * threadSweep[len(threadSweep)-1] * 2
	if cfg.Quick {
		numSources = 64 * 2
	}
	sources := core.RandomSources(g, numSources, cfg.seed()+5)

	var res Fig11Result
	base := map[string]time.Duration{}
	for _, t := range threadSweep {
		for _, algo := range fig11Algorithms(g, sources) {
			elapsed := algo.run(t)
			if t == threadSweep[0] {
				base[algo.name] = elapsed
			}
			sp := 0.0
			if elapsed > 0 {
				sp = float64(base[algo.name]) / float64(elapsed)
			}
			res.Rows = append(res.Rows, Fig11Row{
				Threads: t, Algorithm: algo.name, Elapsed: elapsed, Speedup: sp,
			})
		}
	}
	return res, nil
}

func runFig11(cfg Config) ([][]string, error) {
	res, err := Fig11(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 11: relative speedup vs worker count (constant work)\n")
	fmt.Fprintf(w, "%-26s %8s %14s %8s\n", "algorithm", "threads", "elapsed", "speedup")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-26s %8d %14v %7.2fx\n",
			r.Algorithm, r.Threads, r.Elapsed.Round(time.Millisecond), r.Speedup)
	}
	fmt.Fprintf(w, "paper: MS-PBFS scales ~45x at 60 threads, beating MS-BFS despite the latter's zero synchronization.\n")
	return res.csv(), nil
}

// Fig12Row is one (scale, algorithm) throughput point of the full-machine
// graph-size sweep.
type Fig12Row struct {
	Scale     int
	Algorithm string
	GTEPS     float64
}

// Fig12Result is the data behind Figure 12.
type Fig12Result struct {
	Workers int
	Rows    []Fig12Row
}

// Fig12 measures throughput at full parallelism as graph size increases.
func Fig12(cfg Config) (Fig12Result, error) {
	workers := cfg.workers()
	scales := []int{12, 13, 14, 15, 16, 17}
	if cfg.Quick {
		scales = []int{10, 11, 12}
	}
	res := Fig12Result{Workers: workers}
	for _, scale := range scales {
		g := specGraph(kronSpec(scale, cfg.seed()), workers)
		ec := metrics.NewEdgeCounter(g)
		msSources := core.RandomSources(g, 64, cfg.seed()+uint64(scale))
		perCoreSources := core.RandomSources(g, 64*workers, cfg.seed()+uint64(scale))
		smsSources := msSources[:4]
		opt := core.Options{Workers: workers}

		runs := []struct {
			name    string
			sources []int
			run     func() time.Duration
		}{
			{"MS-BFS", perCoreSources, func() time.Duration {
				return core.MSBFSPerCore(g, perCoreSources, opt).Stats.Elapsed
			}},
			{"MS-PBFS", msSources, func() time.Duration {
				return core.MSPBFS(g, msSources, opt).Stats.Elapsed
			}},
			{"MS-PBFS (sequential)", perCoreSources, func() time.Duration {
				return core.MSPBFSPerSocket(g, perCoreSources, workers, opt).Stats.Elapsed
			}},
			{"SMS-PBFS (bit)", smsSources, func() time.Duration {
				return core.SMSPBFSAll(g, smsSources, core.BitState, opt).Stats.Elapsed
			}},
			{"SMS-PBFS (byte)", smsSources, func() time.Duration {
				return core.SMSPBFSAll(g, smsSources, core.ByteState, opt).Stats.Elapsed
			}},
		}
		for _, r := range runs {
			elapsed := r.run()
			res.Rows = append(res.Rows, Fig12Row{
				Scale:     scale,
				Algorithm: r.name,
				GTEPS:     gtepsOf(ec, r.sources, elapsed),
			})
		}
	}
	return res, nil
}

func runFig12(cfg Config) ([][]string, error) {
	res, err := Fig12(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 12: throughput (GTEPS) at %d workers as graph size increases\n", res.Workers)
	byAlgo := map[string][]Fig12Row{}
	var order []string
	for _, r := range res.Rows {
		if _, ok := byAlgo[r.Algorithm]; !ok {
			order = append(order, r.Algorithm)
		}
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	fmt.Fprintf(w, "%-22s", "algorithm\\scale")
	for _, r := range byAlgo[order[0]] {
		fmt.Fprintf(w, " %8d", r.Scale)
	}
	fmt.Fprintln(w)
	for _, a := range order {
		fmt.Fprintf(w, "%-22s", a)
		for _, r := range byAlgo[a] {
			fmt.Fprintf(w, " %8.3f", r.GTEPS)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper: parallel BFSs struggle at small scales (contention, little work per iteration);\n")
	fmt.Fprintf(w, "       MS-PBFS overtakes the sequential execution model from ~2^20 vertices.\n")
	return res.csv(), nil
}
