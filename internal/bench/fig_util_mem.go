package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Fig2Row is one point of the utilization experiment.
type Fig2Row struct {
	Sources    int
	UtilMSBFS  float64 // one sequential instance per core
	UtilMSPBFS float64 // one parallel instance, all cores
	// The work behind the two utilizations, read off iteration records, so
	// it does not depend on timing: MSBFSBatches is the number of batches,
	// so of cores at most, MS-BFS's instances share, and TasksMSPBFS and
	// EdgesMSPBFS are each MS-PBFS worker's tasks and scanned edges with
	// stealing off.
	MSBFSBatches             int
	TasksMSPBFS, EdgesMSPBFS []int64
}

// Fig2Result is the data behind Figure 2.
type Fig2Result struct {
	Workers int
	Rows    []Fig2Row
}

// Fig2 measures CPU utilization of MS-BFS (one sequential instance per
// core) against MS-PBFS as the number of sources grows. The paper's point:
// MS-BFS needs batch_size x num_threads sources to use the machine, while
// MS-PBFS is fully utilized from the first 64-source batch. The graph has at
// least scale 14, so two workers get at least 8 tasks each on every level.
func Fig2(cfg Config) (Fig2Result, error) {
	workers := cfg.workers()
	g := stripedKronecker(max(cfg.scale(), 14), workers, cfg.seed())
	res := Fig2Result{Workers: workers}

	sweep := []int{64, 128, 192, 256, 384, 512}
	if cfg.Quick {
		sweep = []int{64, 128, 256}
	}
	for _, numSources := range sweep {
		sources := core.RandomSources(g, numSources, cfg.seed()+uint64(numSources))
		seq := core.MSBFSPerCore(g, sources, core.Options{Workers: workers, CollectIterStats: true})
		par := core.MSPBFS(g, sources, core.Options{Workers: workers})
		static := core.MSPBFS(g, sources, core.Options{Workers: workers, DisableStealing: true, CollectIterStats: true})
		row := Fig2Row{
			Sources:     numSources,
			UtilMSBFS:   metrics.Utilization(seq.WorkerBusy, seq.Stats.Elapsed),
			UtilMSPBFS:  metrics.Utilization(par.WorkerBusy, par.Stats.Elapsed),
			TasksMSPBFS: make([]int64, workers),
			EdgesMSPBFS: make([]int64, workers),
		}
		for _, it := range seq.Stats.Iterations {
			if it.Iteration == 1 { // each batch's first level
				row.MSBFSBatches++
			}
		}
		for _, it := range static.Stats.Iterations {
			for w := range workers {
				row.TasksMSPBFS[w] += it.WorkerTasks[w]
				row.EdgesMSPBFS[w] += it.WorkerScanned[w]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runFig2(cfg Config) error {
	res, err := Fig2(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 2: CPU utilization (%%) vs number of BFS sources (%d workers)\n", res.Workers)
	fmt.Fprintf(w, "%-10s %12s %12s %15s %s\n", "sources", "MS-BFS", "MS-PBFS", "MS-BFS batches", "MS-PBFS max/min tasks, edges (stealing off)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10d %11.1f%% %11.1f%% %15d %.1fx, %.1fx\n", r.Sources, 100*r.UtilMSBFS, 100*r.UtilMSPBFS,
			r.MSBFSBatches, spread(r.TasksMSPBFS), spread(r.EdgesMSPBFS))
	}
	fmt.Fprintf(w, "paper: MS-BFS utilization climbs one core per 64 sources (full only at 64*threads);\n")
	fmt.Fprintf(w, "       MS-PBFS is fully utilized from the first batch.\n")
	return nil
}

// Fig3Row is one point of the memory-overhead experiment.
type Fig3Row struct {
	Threads        int
	MSBFSOverhead  float64 // dynamic state / graph size, one instance per thread
	MSPBFSOverhead float64 // single shared instance
}

// Fig3Measured is one real MS-PBFS shell at container scale: what its
// engine's arena holds after one 64-source traversal, and that size over
// the model's graph size. Active is the graph's active prefix, the vertex
// range the shell's state arrays cover (the striped labeling puts the
// isolated vertices past it).
type Fig3Measured struct {
	Workers    int
	Active     int
	ShellBytes int64
	Ratio      float64
}

// Fig3Result is the data behind Figure 3. The paper computes this
// analytically from the Graph500 memory model (16 edges per vertex); we do
// the same and additionally measure real MS-PBFS shells at container scale
// against the model's graph size.
type Fig3Result struct {
	Rows []Fig3Row
	// Scale is the container scale of the measured shells; GraphBytes and
	// ModelStateBytes are the model's graph size and per-instance state
	// there.
	Scale                       int
	GraphBytes, ModelStateBytes int64
	Measured                    []Fig3Measured
}

// fig3Workers are the pool widths of the measured shells. Pools wider than
// the host are legal: a shell's size depends on the worker count, not on
// how many cores run it.
var fig3Workers = []int{1, 2, 6, 60}

// Fig3 computes the relative memory overhead of MS-BFS vs MS-PBFS as the
// thread count increases, and measures MS-PBFS shells built through an
// engine at container scale.
func Fig3(cfg Config) (Fig3Result, error) {
	model := metrics.DefaultMemoryModel()
	const n = 1 << 26 // the paper's reference scale for this figure
	var res Fig3Result
	sweep := []int{1, 6, 12, 24, 36, 48, 60}
	if cfg.Quick {
		sweep = []int{1, 6, 60}
	}
	for _, threads := range sweep {
		res.Rows = append(res.Rows, Fig3Row{
			Threads:        threads,
			MSBFSOverhead:  model.MSBFSOverhead(n, threads),
			MSPBFSOverhead: model.MSPBFSOverhead(n, threads),
		})
	}

	res.Scale = cfg.scale()
	realN := int64(1) << uint(res.Scale)
	res.GraphBytes, res.ModelStateBytes = model.GraphBytes(realN), model.InstanceStateBytes(realN)
	for _, workers := range fig3Workers {
		g := stripedKronecker(res.Scale, workers, cfg.seed())
		eng := core.NewEngine()
		core.MSPBFS(g, core.RandomSources(g, 64, cfg.seed()), core.Options{Workers: workers, Engine: eng})
		// The traversal closed its shell into the fresh engine's arena, so
		// the arena's bytes are that one shell's.
		b := eng.Stats().FreeBytes
		eng.Close()
		res.Measured = append(res.Measured, Fig3Measured{
			Workers: workers, Active: g.ActivePrefix(), ShellBytes: b, Ratio: float64(b) / float64(res.GraphBytes),
		})
	}
	return res, nil
}

func runFig3(cfg Config) error {
	res, err := Fig3(cfg)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 3: BFS dynamic state relative to graph size (Kronecker, edge factor 16)\n")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "threads", "MS-BFS", "MS-PBFS")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10d %11.2fx %11.2fx\n", r.Threads, r.MSBFSOverhead, r.MSPBFSOverhead)
	}
	fmt.Fprintf(w, "measured MS-PBFS shells at scale %d after one 64-source traversal (model graph %d B, state %d B = %.2fx):\n",
		res.Scale, res.GraphBytes, res.ModelStateBytes, float64(res.ModelStateBytes)/float64(res.GraphBytes))
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "workers", "active", "shell B", "vs graph")
	for _, m := range res.Measured {
		fmt.Fprintf(w, "%-10d %12d %12d %11.2fx\n", m.Workers, m.Active, m.ShellBytes, m.Ratio)
	}
	fmt.Fprintf(w, "paper: MS-BFS exceeds the graph size at 6 threads and 10x at 60; MS-PBFS stays flat.\n")
	return nil
}
