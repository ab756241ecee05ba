// Package core implements the paper's BFS algorithms and every baseline its
// evaluation compares against:
//
//   - MS-PBFS — the parallel multi-source BFS (Section 3.1): two-phase
//     top-down over worker-owned stripes with a barrier inbox apply,
//     bottom-up with early exit, NUMA- and cache-conscious array state,
//     work-stealing scheduling.
//   - SMS-PBFS — the parallel single-source variant (Section 3.2) in both
//     bit and byte state representations with 64-vertex chunk skipping.
//   - MS-BFS — the sequential multi-source baseline of Then et al. (VLDB
//     2015), including the "one instance per core" execution mode.
//   - Beamer's direction-optimizing BFS (sequential; GAPBS-, sparse- and
//     dense-queue variants).
//   - An iBFS-style joint-frontier-queue multi-source variant.
//   - A textbook FIFO BFS used as the correctness oracle.
//
// All algorithms operate on the CSR graphs of internal/graph and share the
// Options/metrics plumbing defined in this file.
package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Direction selects the traversal policy of a direction-optimizing BFS.
type Direction int

const (
	// Auto applies the Beamer-style alpha/beta heuristic each iteration.
	Auto Direction = iota
	// TopDownOnly forces top-down processing (classic BFS direction).
	TopDownOnly
	// BottomUpOnly forces bottom-up processing from the first iteration.
	BottomUpOnly
)

// Default direction-heuristic parameters (the GAP benchmark suite values).
const (
	DefaultAlpha = 15.0
	DefaultBeta  = 18.0
)

// NoLevel marks a vertex not reached by a BFS in recorded level arrays.
const NoLevel = int32(-1)

// Options configures a BFS run. The zero value is usable: one worker,
// 64-wide batches, default split size and heuristics, no instrumentation.
type Options struct {
	// Workers is the number of parallel workers; <=0 selects 1.
	Workers int
	// BatchWords is the per-vertex bitset width in 64-bit words for the
	// multi-source algorithms (1..8, i.e. 64..512 concurrent BFSs);
	// <=0 selects 1.
	BatchWords int
	// SplitSize is the task range size in vertices; <=0 selects
	// sched.DefaultSplitSize. The BFS kernels round it up to a multiple of
	// sched.StripeStride so bitmap words and 4 KiB pages of 64-bit state
	// never straddle tasks (Section 4.4's placement at task borders).
	SplitSize int
	// Direction selects the traversal policy.
	Direction Direction
	// Alpha and Beta tune the direction heuristic; <=0 selects the GAPBS
	// defaults.
	Alpha, Beta float64
	// MaxDepth, when positive, stops the traversal after that many
	// iterations: only vertices within MaxDepth hops are discovered. Used
	// for hop-limited neighborhood queries.
	MaxDepth int
	// RecordLevels makes the run produce per-source distance arrays.
	// Memory cost is sources x vertices x 4 bytes; intended for
	// correctness tests and applications, not throughput benchmarks.
	RecordLevels bool
	// CollectIterStats returns one obs.IterationRecord per BFS level in
	// Result.Stats.Iterations, the same value a Tracer's flight record
	// gets: direction, counts, wall time and, for the pool-driven kernels,
	// per-worker tasks, steals, busy time, scanned edges, updated states
	// and applied inbox entries.
	CollectIterStats bool
	// DisableStealing runs every parallel loop with static partitioning
	// (each worker only processes its own queue). Used by the labeling
	// skew experiments (Figures 6, 7).
	DisableStealing bool
	// DisableEarlyExit turns off the bottom-up neighbor-scan early exit
	// (the "stop once all active BFS bits are set" optimization); used by
	// the ablation benchmarks.
	DisableEarlyExit bool
	// Engine optionally supplies the long-lived execution substrate of the
	// pool-driven kernels — persistent worker pools (a run borrows one of
	// Workers width and returns it when done) plus the arena recycling
	// MS-/SMS-PBFS kernel shells; the baselines never touch it. When nil,
	// the shared package-default engine is used, so repeated calls are
	// allocation-churn free either way; wire an explicit engine to isolate
	// a subsystem's recycling (one engine per daemon, per test, per
	// benchmark).
	Engine *Engine
	// Tracer, when non-nil, records a flight record for every traversal:
	// one entry per BFS iteration with the direction decision and its
	// reason, frontier/next/visited counts, wall time and per-worker
	// task/steal counts. Nil (the default) is free — the kernels pay one
	// pointer test per iteration.
	Tracer *obs.Tracer
	// Overlay optionally layers a sorted per-vertex overflow adjacency —
	// streamed edge inserts not yet compacted into the CSR (see
	// internal/dyngraph) — over the graph. The effective neighbor set of v
	// becomes Neighbors(v) ∪ Overlay.Extra(v); MS-PBFS and SMS-PBFS fuse
	// the overlay scan into their inner loops (as ReferenceBFSOverlay does),
	// and their degree accounting includes the overlay so direction
	// decisions match the compacted CSR exactly. The overlay must be
	// immutable for the duration of the run (dyngraph snapshots guarantee
	// this). The paper's baselines (MS-BFS, iBFS, Beamer) panic on a
	// non-nil Overlay rather than silently traversing a stale view.
	Overlay *graph.Overlay
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

func (o Options) batchWords() int {
	if o.BatchWords <= 0 {
		return 1
	}
	return o.BatchWords
}

func (o Options) splitSize() int {
	s := o.SplitSize
	if s <= 0 {
		s = sched.DefaultSplitSize
	}
	if rem := s % sched.StripeStride; rem != 0 {
		s += sched.StripeStride - rem
	}
	return s
}

func (o Options) alpha() float64 {
	if o.Alpha <= 0 {
		return DefaultAlpha
	}
	return o.Alpha
}

func (o Options) beta() float64 {
	if o.Beta <= 0 {
		return DefaultBeta
	}
	return o.Beta
}

// engine resolves the run's execution substrate: the explicitly wired
// engine, or the shared package default.
func (o Options) engine() *Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return DefaultEngine()
}

// fillMask writes the k-sources-active mask (lowest k bits set) into mask
// and returns it; the reusable-buffer replacement for State.FullMask on
// the zero-allocation run path.
func fillMask(mask []uint64, k int) []uint64 {
	for i := range mask {
		switch {
		case k >= 64*(i+1):
			mask[i] = ^uint64(0) //bfs:singlewriter mask built on the coordinating goroutine before the batch starts
		case k <= 64*i:
			mask[i] = 0 //bfs:singlewriter mask built on the coordinating goroutine before the batch starts
		default:
			mask[i] = uint64(1)<<uint(k-64*i) - 1 //bfs:singlewriter mask built on the coordinating goroutine before the batch starts
		}
	}
	return mask
}

// Result is the outcome of a single-source BFS.
type Result struct {
	// Levels[v] is the hop distance from the source, or NoLevel if
	// unreachable. Nil unless Options.RecordLevels was set.
	Levels []int32
	// VisitedVertices counts the vertices reached (including the source).
	VisitedVertices int64
	// Stats aggregates timing and per-iteration detail.
	Stats metrics.RunStat
}

// MultiResult is the outcome of a multi-source BFS over one batch or a
// sequence of batches.
type MultiResult struct {
	// Sources are the processed source vertices in order.
	Sources []int
	// Levels[i][v] is the distance of v from Sources[i]; nil unless
	// Options.RecordLevels was set.
	Levels [][]int32
	// VisitedStates counts (source, vertex) discoveries across the run.
	VisitedStates int64
	// Stats aggregates timing and per-iteration detail.
	Stats metrics.RunStat
	// WorkerBusy is the accumulated busy time per worker over the whole
	// run (Figure 2's utilization numerator).
	WorkerBusy []time.Duration
}

// padCounter is an int64 padded to a cache line so per-worker counters do
// not false-share.
type padCounter struct {
	v int64
	_ [56]byte
}

func counterValues(cs []padCounter) []int64 {
	out := make([]int64, len(cs))
	for i := range cs {
		out[i] = cs[i].v
	}
	return out
}

func sumCounters(cs []padCounter) int64 {
	var s int64
	for i := range cs {
		s += cs[i].v
	}
	return s
}

func resetCounters(cs []padCounter) {
	for i := range cs {
		cs[i].v = 0
	}
}

// iterRecorder hands each level's one obs.IterationRecord to the run's two
// sinks: the stats it returns in Result.Stats.Iterations
// (Options.CollectIterStats) and the flight record (Options.Tracer). Both
// are off in the zero value, and record is then a no-op; levelStep, whose
// record copies per-worker counters out, builds it only when on reports a
// sink, so the untraced, stats-off path pays one test per level.
type iterRecorder struct {
	collect bool
	stats   []obs.IterationRecord
	// tr is the open flight record (nil when tracing is off).
	tr *obs.Traversal

	// pool and the prev snapshot turn the pool's cumulative per-worker
	// counters into per-level deltas; cur is the scratch the next snapshot
	// lands in, and scatterSteals the one mid-level reading (noteScatter).
	// pool is nil when no sink is on.
	pool          *sched.Pool
	prev, cur     []sched.Counters
	scatterSteals int64
}

// newIterRecorder opens the per-traversal instrumentation. algo and
// sources label the flight record; pool, when non-nil, contributes the
// per-worker task, steal and busy-time deltas of every level.
func newIterRecorder(opt Options, algo string, sources int, pool *sched.Pool) iterRecorder {
	r := iterRecorder{collect: opt.CollectIterStats, tr: opt.Tracer.StartTraversal(algo, sources)}
	if pool != nil && r.on() {
		r.pool = pool
		r.prev = pool.Counters(nil)
	}
	return r
}

// on reports whether any sink takes this run's records.
func (r *iterRecorder) on() bool { return r.collect || r.tr != nil }

// noteScatter takes the steals made so far in the level. Called between a
// top-down level's scatter and apply phases, that is the scatter's share of
// the level's steals: internal/bench needs it to tell a stolen scatter task
// (its writes land in the thief's own stripe and inbox) from a stolen
// resolve task.
func (r *iterRecorder) noteScatter() {
	if r.pool == nil {
		return
	}
	r.cur = r.pool.Counters(r.cur[:0])
	r.scatterSteals = 0
	for i, c := range r.cur {
		r.scatterSteals += c.Steals - r.prev[i].Steals
	}
}

// record completes a level's record with the pool's per-worker deltas and
// hands it to both sinks. A no-op when no sink is on.
func (r *iterRecorder) record(rec obs.IterationRecord) {
	if !r.on() {
		return
	}
	if r.pool != nil {
		r.cur = r.pool.Counters(r.cur[:0])
		rec.WorkerTasks = make([]int64, len(r.cur))
		rec.WorkerSteals = make([]int64, len(r.cur))
		rec.WorkerBusy = make([]time.Duration, len(r.cur))
		for i, c := range r.cur {
			p := r.prev[i]
			rec.WorkerTasks[i] = c.Tasks - p.Tasks
			rec.WorkerSteals[i] = c.Steals - p.Steals
			rec.WorkerBusy[i] = c.Busy - p.Busy
		}
		r.prev, r.cur = r.cur, r.prev
		rec.ScatterSteals, r.scatterSteals = r.scatterSteals, 0
	}
	if r.collect {
		r.stats = append(r.stats, rec)
	}
	r.tr.Record(rec)
}

// finish closes the flight record. Kernels call it once after the BFS
// loop.
func (r *iterRecorder) finish() { r.tr.Finish() }

// requireNoOverlay is the baselines' guard. MS-BFS, iBFS and Beamer exist
// for the paper's comparisons over static inputs and do not honour
// Options.Overlay; panicking beats silently traversing a stale view.
func requireNoOverlay(opt Options, algo string) {
	if opt.Overlay != nil {
		panic("core: " + algo + " does not support Options.Overlay; use MSPBFS, SMSPBFS or ReferenceBFSOverlay")
	}
}

// SourcesPerBatch returns the number of concurrent BFSs one batch of the
// given width (in 64-bit words) supports.
func SourcesPerBatch(batchWords int) int { return batchWords * 64 }
