package msbfs

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// NoLevel marks an unreachable vertex in recorded level arrays.
const NoLevel = core.NoLevel

// Options configures BFS runs. The zero value runs single-threaded with the
// paper's default task size and direction heuristics.
type Options struct {
	// Workers is the number of parallel workers (<=0: 1). One multi-source
	// batch saturates all workers; no extra sources are needed.
	Workers int
	// BatchWords is the multi-source bitset width in 64-bit words
	// (1..8 = 64..512 concurrent BFSs per batch; <=0: 1).
	BatchWords int
	// ByteState switches SMS-PBFS from the bit to the byte state
	// representation (less worker contention, more cache footprint).
	ByteState bool
	// TopDownOnly / BottomUpOnly force a traversal direction; default is
	// the Beamer-style heuristic.
	TopDownOnly, BottomUpOnly bool
	// MaxDepth, when positive, stops each traversal after that many hops;
	// only vertices within MaxDepth hops are discovered.
	MaxDepth int
	// RecordLevels makes results carry per-source distance arrays
	// (sources x vertices x 4 bytes of memory).
	RecordLevels bool
	// CollectIterStats gathers per-iteration timing and workload detail.
	CollectIterStats bool
	// Engine optionally pins the run to a long-lived execution engine
	// (persistent worker pools + an arena of recycled MS-/SMS-PBFS kernel
	// state, see NewEngine); recorded level rows are allocated per run and
	// belong to the caller. When nil, the library's shared default engine
	// is used, so repeated calls avoid pool/state churn either way.
	Engine *Engine
	// Tracer, when non-nil, records a per-iteration flight record for
	// every traversal (direction decisions and their reasons, frontier
	// counts, per-worker work-stealing balance, arena behavior). Nil is
	// free; see NewTracer.
	Tracer *Tracer
	// Overlay layers streamed-but-uncompacted edge inserts over the graph:
	// the traversal's effective neighbor set of v becomes
	// Neighbors(v) ∪ Overlay.Extra(v), scanned fused inside the kernels'
	// inner loops. Obtain one from a dyngraph snapshot; it must stay
	// immutable for the duration of the run. Nil (the default) is the
	// static-graph fast path.
	Overlay *Overlay
}

// Normalize returns a copy of o with out-of-range fields clamped to their
// documented domains: Workers < 1 becomes 1, BatchWords is clamped to
// [0, 8] (0 keeps the auto-sizing behaviour of MultiBFS), and negative
// MaxDepth becomes 0 (unlimited). Every public entry point normalizes its
// Options on entry, so callers — including the query server validating
// request parameters — can pass through user-supplied values safely.
func (o Options) Normalize() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.BatchWords < 0 {
		o.BatchWords = 0
	}
	if o.BatchWords > 8 {
		o.BatchWords = 8
	}
	if o.MaxDepth < 0 {
		o.MaxDepth = 0
	}
	return o
}

func (o Options) toCore() core.Options {
	if o.BatchWords > 8 {
		panic("msbfs: BatchWords must be in [1, 8] (64 to 512 concurrent BFSs)")
	}
	c := core.Options{
		Workers:          o.Workers,
		BatchWords:       o.BatchWords,
		MaxDepth:         o.MaxDepth,
		RecordLevels:     o.RecordLevels,
		CollectIterStats: o.CollectIterStats,
		Engine:           o.Engine.coreEngine(),
		Tracer:           o.Tracer.obsTracer(),
		Overlay:          o.Overlay,
	}
	switch {
	case o.TopDownOnly:
		c.Direction = core.TopDownOnly
	case o.BottomUpOnly:
		c.Direction = core.BottomUpOnly
	}
	return c
}

func (o Options) repr() core.StateRepr {
	if o.ByteState {
		return core.ByteState
	}
	return core.BitState
}

// IterationStat describes one BFS iteration (depth level). It is the same
// record a Tracer's flight record holds for that iteration.
type IterationStat = obs.IterationRecord

// Result is the outcome of a single-source BFS.
type Result struct {
	// Levels[v] is the hop distance from the source (NoLevel if
	// unreachable); nil unless Options.RecordLevels.
	Levels []int32
	// VisitedVertices counts reached vertices, including the source.
	VisitedVertices int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Iterations carries per-iteration detail when requested.
	Iterations []IterationStat
}

// MultiResult is the outcome of a multi-source BFS.
type MultiResult struct {
	// Sources are the processed sources, in input order.
	Sources []int
	// Levels[i] is the distance array of Sources[i]; nil unless
	// Options.RecordLevels.
	Levels [][]int32
	// VisitedStates counts (source, vertex) discoveries.
	VisitedStates int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Iterations carries per-iteration detail when requested.
	Iterations []IterationStat
}

// BFS runs the parallel single-source SMS-PBFS algorithm from source.
func (g *Graph) BFS(source int, opt Options) *Result {
	g.checkSource(source)
	opt = opt.Normalize()
	r := core.SMSPBFS(g.g, source, opt.repr(), opt.toCore())
	return &Result{
		Levels:          r.Levels,
		VisitedVertices: r.VisitedVertices,
		Elapsed:         r.Stats.Elapsed,
		Iterations:      r.Stats.Iterations,
	}
}

// autoBatchWords picks the smallest bitset width covering all sources in
// one batch (capped at the 512-BFS maximum), so callers who leave
// BatchWords zero get full work sharing without tuning.
func autoBatchWords(numSources int) int {
	words := (numSources + 63) / 64
	if words < 1 {
		words = 1
	}
	if words > 8 {
		words = 8
	}
	return words
}

// MultiBFS runs the parallel multi-source MS-PBFS algorithm. Sources are
// processed in batches of up to 64*BatchWords concurrent traversals that
// share common work; all workers cooperate on every batch. When BatchWords
// is zero the width is sized to fit all sources in one batch (up to 512).
func (g *Graph) MultiBFS(sources []int, opt Options) *MultiResult {
	return g.MultiBFSVisitor(sources, opt, nil)
}

// MultiBFSVisitor is like MultiBFS but streams every (source, vertex,
// depth) discovery to visit instead of materializing level arrays; the
// callback runs concurrently on worker goroutines and must only touch
// workerID-partitioned state. This is the memory-frugal path for
// whole-graph analytics such as closeness centrality. A nil visit is
// MultiBFS.
func (g *Graph) MultiBFSVisitor(sources []int, opt Options,
	visit func(workerID, sourceIdx, vertex, depth int)) *MultiResult {
	for _, s := range sources {
		g.checkSource(s)
	}
	opt = opt.Normalize()
	if opt.BatchWords <= 0 {
		opt.BatchWords = autoBatchWords(len(sources))
	}
	e := core.NewMSPBFSEngine(g.g, opt.toCore())
	defer e.Close()
	r := e.Run(sources, visit)
	return &MultiResult{
		Sources:       r.Sources,
		Levels:        r.Levels,
		VisitedStates: r.VisitedStates,
		Elapsed:       r.Stats.Elapsed,
		Iterations:    r.Stats.Iterations,
	}
}

// Pinned is one immutable version of a graph, held by a request from
// admission until its batch has run, so every coalesced query is
// repeatable-read isolated from concurrent ingest and compaction. RunBatch
// has the MultiBFSVisitor contract in a context-aware, fallible form: a
// remote backend honors the requests' deadlines and fails the batch on a
// shard death instead of panicking. Release drops the pin; the holder calls
// it exactly once.
//
// Three graphs hand out pins: a Graph and a cluster RemoteGraph are
// immutable and pin themselves as their one eternal version, reported as
// 0; a dynamic graph pins the MVCC snapshot of the requested version.
type Pinned interface {
	Version() uint64
	RunBatch(ctx context.Context, sources []int, opt Options,
		visit func(workerID, sourceIdx, vertex, depth int)) (*MultiResult, error)
	Release()
}

// RunBatch is MultiBFSVisitor in the Pinned shape. An in-process traversal
// cannot be canceled mid-flight and cannot fail, so ctx is ignored and the
// error is always nil.
func (g *Graph) RunBatch(_ context.Context, sources []int, opt Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*MultiResult, error) {
	return g.MultiBFSVisitor(sources, opt, visit), nil
}

// Pin returns the graph itself whichever version is asked for — no
// allocation, no lock: a Graph has one eternal version (see Pinned).
func (g *Graph) Pin(uint64) (Pinned, error) { return g, nil }

// Version is the graph's one version, 0 (see Pin).
func (g *Graph) Version() uint64 { return 0 }

// Release is a no-op: a Graph pins nothing (see Pin).
func (g *Graph) Release() {}

// SequentialBFS runs the textbook FIFO-queue BFS; useful as a baseline and
// for verifying results. It always records levels, and allocates two
// n-entry arrays per call: the level array it returns and one queue.
func (g *Graph) SequentialBFS(source int) *Result {
	g.checkSource(source)
	r := core.ReferenceBFS(g.g, source)
	return &Result{
		Levels:          r.Levels,
		VisitedVertices: r.VisitedVertices,
		Elapsed:         r.Stats.Elapsed,
	}
}

func (g *Graph) checkSource(s int) {
	if s < 0 || s >= g.g.NumVertices() {
		panic("msbfs: source vertex out of range")
	}
}
