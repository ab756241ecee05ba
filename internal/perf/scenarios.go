package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	msbfs "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// suiteEnv is the shared fixture every scenario runs against: one
// fixed-seed Kronecker graph (striped-relabeled exactly as the figure
// experiments run it), one source workload, one edge counter. Building it
// once keeps iterations cheap and identical across repetitions.
type suiteEnv struct {
	cfg     Config
	g       *graph.Graph // striped labeling, the suite's traversal input
	sources []int
	counter *metrics.EdgeCounter
	// The large fixture (cfg.LargeScale) drives the *-large scenarios: a
	// working set past LLC capacity, where the worker-owned frontier
	// segments and many stealable bottom-up tasks per stripe are supposed
	// to earn their keep (ROADMAP item 8a's mspbfs/auto-large ÷
	// msbfs/sequential-large ratio row: it must stay < 1, the paper's
	// headline claim at scale).
	gLarge       *graph.Graph
	sourcesLarge []int
	counterLarge *metrics.EdgeCounter
	edges        []graph.Edge // canonical edge list for the CSR build scenario
	clu          *cluster.Inproc
	cluRG        *cluster.RemoteGraph // suite graph sharded over the inproc cluster
	ov           *graph.Overlay       // resident delta for the dyn/overlay-scan scenario
}

// close releases the fixture's long-lived resources after the suite run.
func (e *suiteEnv) close() { e.clu.Close() }

func newSuiteEnv(cfg Config) (*suiteEnv, error) {
	base := bench.KroneckerGraph(cfg.Scale, cfg.Seed)
	striped, _ := label.Apply(base, label.Striped,
		label.Params{Workers: cfg.Workers, TaskSize: 512})
	sources := core.RandomSources(striped, cfg.Sources, cfg.Seed)
	if len(sources) < cfg.Sources {
		return nil, fmt.Errorf("perf: graph scale %d yielded only %d/%d usable sources",
			cfg.Scale, len(sources), cfg.Sources)
	}
	// The large fixture is pinned exactly like the base one: same seed,
	// same striped relabeling, same source-selection procedure, just a
	// bigger scale — so *-large rows are comparable across reports the
	// same way the base rows are.
	baseLarge := bench.KroneckerGraph(cfg.LargeScale, cfg.Seed)
	stripedLarge, _ := label.Apply(baseLarge, label.Striped,
		label.Params{Workers: cfg.Workers, TaskSize: 512})
	sourcesLarge := core.RandomSources(stripedLarge, cfg.Sources, cfg.Seed)
	if len(sourcesLarge) < cfg.Sources {
		return nil, fmt.Errorf("perf: graph scale %d yielded only %d/%d usable sources",
			cfg.LargeScale, len(sourcesLarge), cfg.Sources)
	}
	n := striped.NumVertices()
	edges := make([]graph.Edge, 0, striped.NumEdges())
	for v := 0; v < n; v++ {
		for _, u := range striped.Neighbors(v) {
			if int(u) > v {
				edges = append(edges, graph.Edge{U: graph.VertexID(v), V: u})
			}
		}
	}
	srvG := msbfs.NewGraphFromAdjacency(striped.Offsets, striped.Adjacency)
	// The cluster fixture is a 2-shard in-process cluster over loopback;
	// the suite graph is shipped once, then every repetition reuses the
	// shards' warm engines exactly as a deployed cluster would.
	clu, err := cluster.StartInproc(context.Background(), 2,
		cluster.ShardOptions{Workers: cfg.Workers}, cluster.CoordinatorOptions{})
	if err != nil {
		return nil, fmt.Errorf("perf: inproc cluster: %w", err)
	}
	cluRG, err := clu.Coord.LoadGraph(context.Background(), "perf", srvG, cfg.Workers)
	if err != nil {
		clu.Close()
		return nil, fmt.Errorf("perf: cluster load: %w", err)
	}
	// The overlay fixture models a dynamic graph mid-stream: ~512 extra
	// edges (deterministic from the seed) living in the delta layer, the
	// size a snapshot typically carries between compactions.
	state := cfg.Seed*6364136223846793005 + 1442695040888963407
	extra := make([]graph.Edge, 0, 512)
	for len(extra) < 512 {
		state = state*6364136223846793005 + 1442695040888963407
		u := graph.VertexID((state >> 33) % uint64(n))
		state = state*6364136223846793005 + 1442695040888963407
		v := graph.VertexID((state >> 33) % uint64(n))
		if u != v {
			extra = append(extra, graph.Edge{U: u, V: v})
		}
	}
	return &suiteEnv{
		cfg:          cfg,
		g:            striped,
		sources:      sources,
		counter:      metrics.NewEdgeCounter(striped),
		gLarge:       stripedLarge,
		sourcesLarge: sourcesLarge,
		counterLarge: metrics.NewEdgeCounter(stripedLarge),
		edges:        edges,
		clu:          clu,
		cluRG:        cluRG,
		ov:           graph.NewOverlay(n).WithEdges(extra, nil),
	}, nil
}

func (e *suiteEnv) traversalOpts() core.Options {
	return core.Options{Workers: e.cfg.Workers, BatchWords: 1}
}

// runMulti times one multi-source run over the whole workload.
func runMulti(e *suiteEnv, f func() *core.MultiResult) Sample {
	start := time.Now()
	res := f()
	elapsed := time.Since(start)
	st := res.Stats
	st.TraversedEdges = e.counter.EdgesForAll(e.sources)
	return Sample{Elapsed: elapsed, Work: st.TraversedEdges, Stats: &st}
}

// runSingle times one single-source run from the workload's first source.
func runSingle(e *suiteEnv, f func() *core.Result) Sample {
	start := time.Now()
	res := f()
	elapsed := time.Since(start)
	st := res.Stats
	st.TraversedEdges = e.counter.EdgesFor(e.sources[0])
	return Sample{Elapsed: elapsed, Work: st.TraversedEdges, Stats: &st}
}

func runMSPBFSDirection(e *suiteEnv, d core.Direction) Sample {
	opt := e.traversalOpts()
	opt.Direction = d
	return runMulti(e, func() *core.MultiResult {
		return core.MSPBFS(e.g, e.sources, opt)
	})
}

func runMSPBFSTopDown(e *suiteEnv) Sample  { return runMSPBFSDirection(e, core.TopDownOnly) }
func runMSPBFSBottomUp(e *suiteEnv) Sample { return runMSPBFSDirection(e, core.BottomUpOnly) }
func runMSPBFSAuto(e *suiteEnv) Sample     { return runMSPBFSDirection(e, core.Auto) }

func runSMSPBFS(e *suiteEnv, repr core.StateRepr) Sample {
	opt := e.traversalOpts()
	return runSingle(e, func() *core.Result {
		return core.SMSPBFS(e.g, e.sources[0], repr, opt)
	})
}

func runSMSPBFSBit(e *suiteEnv) Sample  { return runSMSPBFS(e, core.BitState) }
func runSMSPBFSByte(e *suiteEnv) Sample { return runSMSPBFS(e, core.ByteState) }

func runMSBFSSeq(e *suiteEnv) Sample {
	opt := core.Options{Workers: 1, BatchWords: 1}
	return runMulti(e, func() *core.MultiResult {
		return core.MSBFS(e.g, e.sources, opt)
	})
}

// runMultiLarge is runMulti against the large fixture's workload/counter.
func runMultiLarge(e *suiteEnv, f func() *core.MultiResult) Sample {
	start := time.Now()
	res := f()
	elapsed := time.Since(start)
	st := res.Stats
	st.TraversedEdges = e.counterLarge.EdgesForAll(e.sourcesLarge)
	return Sample{Elapsed: elapsed, Work: st.TraversedEdges, Stats: &st}
}

// runMSPBFSAutoLarge is the parallel kernel on the large fixture. Its row
// carries the claim behind ROADMAP item 8a's auto-large ÷ sequential-large
// ratio row: median GTEPS here must not fall below msbfs/sequential-large.
func runMSPBFSAutoLarge(e *suiteEnv) Sample {
	opt := e.traversalOpts()
	opt.Direction = core.Auto
	return runMultiLarge(e, func() *core.MultiResult {
		return core.MSPBFS(e.gLarge, e.sourcesLarge, opt)
	})
}

// runMSBFSSeqLarge is the sequential baseline on the same large fixture.
func runMSBFSSeqLarge(e *suiteEnv) Sample {
	opt := core.Options{Workers: 1, BatchWords: 1}
	return runMultiLarge(e, func() *core.MultiResult {
		return core.MSBFS(e.gLarge, e.sourcesLarge, opt)
	})
}

func runBeamerGAPBS(e *suiteEnv) Sample {
	return runSingle(e, func() *core.Result {
		return core.Beamer(e.g, e.sources[0], core.BeamerGAPBS, core.Options{})
	})
}

func runCSRBuild(e *suiteEnv) Sample {
	start := time.Now()
	g := graph.FromEdges(e.g.NumVertices(), e.edges)
	elapsed := time.Since(start)
	return Sample{Elapsed: elapsed, Work: g.NumEdges()}
}

// runClusterInproc runs the suite's multi-source workload as one sharded
// traversal over the 2-shard loopback cluster: local MS-PBFS steps plus a
// compressed delta-frontier exchange and level barrier per iteration. Its
// delta against mspbfs/auto is the measured cost of distribution.
func runClusterInproc(e *suiteEnv) Sample {
	start := time.Now()
	_, err := e.cluRG.RunBatch(context.Background(), e.sources,
		msbfs.Options{Workers: e.cfg.Workers, BatchWords: 1}, nil)
	elapsed := time.Since(start)
	if err != nil {
		// An in-process loopback cluster cannot legitimately fail; a broken
		// fixture must abort the suite rather than record garbage timings.
		panic(fmt.Sprintf("perf: cluster/inproc: %v", err))
	}
	// The exchange allocates wire frames and decoded level rows; collect
	// them in this scenario's (untimed) slot so the GC debt cannot bleed
	// into whichever scenario the interleaved protocol runs next.
	runtime.GC()
	return Sample{Elapsed: elapsed, Work: e.counter.EdgesForAll(e.sources)}
}

// runDynOverlayScan is mspbfs/auto with a resident delta overlay — the
// dynamic-graph serving path, where a snapshot's uncompacted overflow
// adjacency rides along with every scan. Its delta against mspbfs/auto is
// the measured cost of the fused (CSR + overlay) neighbor iteration.
func runDynOverlayScan(e *suiteEnv) Sample {
	opt := e.traversalOpts()
	opt.Direction = core.Auto
	opt.Overlay = e.ov
	return runMulti(e, func() *core.MultiResult {
		return core.MSPBFS(e.g, e.sources, opt)
	})
}
