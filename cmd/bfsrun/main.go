// Command bfsrun executes one BFS workload on the graph a spec names (a
// generator or a file; see internal/gen.Spec) with a chosen algorithm and prints timing, GTEPS, and
// optional per-iteration detail (the flight record, -tracetext). It is the manual-experimentation
// counterpart to bfsbench's fixed experiments.
//
// Usage:
//
//	bfsrun -graph file:kron20.bin -algo mspbfs -sources 64 -workers 8
//	bfsrun -graph kron:scale=18 -algo smspbfs-bit -sources 4 -tracetext
//	bfsrun -graph social:n=200000 -algo beamer-gapbs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/obs"
)

var algoNames = []string{
	"mspbfs", "mspbfs-seq", "mspbfs-persocket", "msbfs", "msbfs-percore",
	"smspbfs-bit", "smspbfs-byte", "ibfs",
	"beamer-gapbs", "beamer-sparse", "beamer-dense", "reference",
}

func main() {
	var (
		graphSpec  = flag.String("graph", "kron:scale=16", "graph spec: kron:scale=S, uniform:n=N, social:n=N, powerlaw:n=N, web:n=N, collab:n=N or file:PATH (see docs/SERVER.md)")
		algo       = flag.String("algo", "mspbfs", fmt.Sprintf("algorithm: %v", algoNames))
		numSources = flag.Int("sources", 64, "number of BFS sources")
		workers    = flag.Int("workers", runtime.NumCPU(), "worker threads")
		batchWords = flag.Int("batchwords", 1, "multi-source bitset width in 64-bit words (1..8)")
		labeling   = flag.String("label", "striped", "vertex labeling: none, random, ordered, striped")
		seed       = flag.Uint64("seed", 42, "source selection and random labeling seed")
		sockets    = flag.Int("sockets", 2, "socket count for mspbfs-persocket")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the BFS run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the run to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON flight record (setup spans + per-iteration detail) to this file")
		traceText  = flag.Bool("tracetext", false, "print the flight record as a per-iteration text table after the run")
		clusterN   = flag.Int("cluster", 0, "run the workload over an in-process N-shard loopback cluster instead of -algo; with -trace the export carries one track per shard (see docs/CLUSTER.md)")
	)
	flag.Parse()

	// The tracer stays nil unless a trace output was requested, so the
	// default invocation exercises the kernels' tracing-disabled fast path.
	var tracer *obs.Tracer
	if *traceOut != "" || *traceText {
		tracer = obs.NewTracer()
	}

	buildSpan := tracer.StartSpan("csr-build", *graphSpec)
	g, err := gen.Build(*graphSpec)
	buildSpan.End()
	exitOn(err)
	if *labeling != "none" {
		scheme, err := label.ParseScheme(*labeling)
		exitOn(err)
		relabelSpan := tracer.StartSpan("relabel", *labeling)
		g, _ = label.Apply(g, scheme, label.Params{Workers: *workers, Seed: *seed})
		relabelSpan.End()
	}

	fmt.Printf("graph: %d vertices, %d edges (%.1f MB)\n",
		g.NumVertices(), g.NumEdges(), float64(g.MemoryBytes())/(1<<20))

	sources := core.RandomSources(g, *numSources, *seed)
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "bfsrun: graph has no usable sources")
		os.Exit(1)
	}
	ec := metrics.NewEdgeCounter(g)
	// One engine for the whole invocation: repeated runs (and the
	// per-source loops inside the single-source algorithms) reuse pooled
	// workers and recycled state instead of rebuilding them per call.
	eng := core.NewEngine()
	defer eng.Close()
	opt := core.Options{
		Workers:    *workers,
		BatchWords: *batchWords,
		Engine:     eng,
		Tracer:     tracer,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	algoName := *algo
	var elapsed time.Duration
	if *clusterN > 0 {
		algoName = fmt.Sprintf("cluster/%d-shards", *clusterN)
		elapsed, err = runCluster(g, sources, *clusterN, *workers, *batchWords, tracer)
	} else {
		elapsed, err = run(*algo, g, sources, opt, *sockets)
	}
	exitOn(err)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		exitOn(err)
		runtime.GC()
		exitOn(pprof.WriteHeapProfile(f))
		f.Close()
	}

	edges := ec.EdgesForAll(sources)
	fmt.Printf("algorithm: %s, %d sources, %d workers\n", algoName, len(sources), *workers)
	fmt.Printf("elapsed:   %v (%.3f ms/source)\n",
		elapsed.Round(time.Microsecond),
		float64(elapsed)/float64(time.Millisecond)/float64(len(sources)))
	fmt.Printf("GTEPS:     %.3f\n", metrics.GTEPS(edges, elapsed))
	if *traceText {
		exitOn(tracer.WriteText(os.Stdout))
	}
	if *traceOut != "" {
		exitOn(writeTraceFile(*traceOut, tracer))
		fmt.Printf("trace:     %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}
}

// exitOn ends the run with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		os.Exit(1)
	}
}

// writeTraceFile exports the flight record as Chrome trace-event JSON.
func writeTraceFile(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCluster executes the workload as sharded MS-PBFS traversals over an
// in-process N-shard loopback cluster: the real wire protocol over TCP
// loopback, one engine per shard. When tracing is on the coordinator's
// trace id rides the msgStart frames and each shard ships per-step phase
// timings back on its step replies, so the exported flight record carries
// one clock-aligned track per shard next to the coordinator's.
func runCluster(g *graph.Graph, sources []int, shards, workers, batchWords int,
	tracer *obs.Tracer) (time.Duration, error) {
	ctx := context.Background()
	clu, err := cluster.StartInproc(ctx, shards,
		cluster.ShardOptions{Workers: workers}, cluster.CoordinatorOptions{Tracer: tracer})
	if err != nil {
		return 0, err
	}
	defer clu.Close()
	rg, err := clu.Coord.LoadGraph(ctx, "bfsrun",
		msbfs.NewGraphFromAdjacency(g.Offsets, g.Adjacency), workers)
	if err != nil {
		return 0, err
	}
	res, err := rg.RunBatch(ctx, sources, msbfs.Options{Workers: workers, BatchWords: batchWords}, nil)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

func run(algo string, g *graph.Graph, sources []int, opt core.Options, sockets int) (time.Duration, error) {
	switch algo {
	case "mspbfs":
		return core.MSPBFS(g, sources, opt).Stats.Elapsed, nil
	case "mspbfs-seq":
		return core.MSPBFSPerSocket(g, sources, opt.Workers, opt).Stats.Elapsed, nil
	case "mspbfs-persocket":
		return core.MSPBFSPerSocket(g, sources, sockets, opt).Stats.Elapsed, nil
	case "msbfs":
		return core.MSBFS(g, sources, opt).Stats.Elapsed, nil
	case "msbfs-percore":
		return core.MSBFSPerCore(g, sources, opt).Stats.Elapsed, nil
	case "smspbfs-bit", "smspbfs-byte":
		repr := core.BitState
		if algo == "smspbfs-byte" {
			repr = core.ByteState
		}
		return core.SMSPBFSAll(g, sources, repr, opt).Stats.Elapsed, nil
	case "ibfs":
		return core.IBFS(g, sources, opt).Stats.Elapsed, nil
	case "beamer-gapbs", "beamer-sparse", "beamer-dense":
		v := map[string]core.BeamerVariant{
			"beamer-gapbs":  core.BeamerGAPBS,
			"beamer-sparse": core.BeamerSparse,
			"beamer-dense":  core.BeamerDense,
		}[algo]
		var total time.Duration
		for _, s := range sources {
			total += core.Beamer(g, s, v, opt).Stats.Elapsed
		}
		return total, nil
	case "reference":
		var total time.Duration
		for _, s := range sources {
			total += core.ReferenceBFS(g, s).Stats.Elapsed
		}
		return total, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (known: %v)", algo, algoNames)
	}
}
