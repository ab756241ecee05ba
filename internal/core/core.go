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
//   - A queue-based parallel single-source BFS in the style of Yasui et al.
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
	// 512 so bitmap words and 4 KiB pages of 64-bit state never straddle
	// tasks (Section 4.4's placement at task borders).
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
	// CollectIterStats gathers per-iteration metrics.IterationStat.
	CollectIterStats bool
	// PerWorkerTiming additionally records per-worker busy time per
	// iteration (implies CollectIterStats for the timed data to land).
	PerWorkerTiming bool
	// DisableStealing runs every parallel loop with static partitioning
	// (each worker only processes its own queue). Used by the labeling
	// skew experiments (Figures 6, 7).
	DisableStealing bool
	// SinglePhaseTopDown switches the sequential MS-BFS to the "direct"
	// top-down variant of Then et al.: seen and next are updated inline
	// while scanning the frontier instead of in a separate second phase.
	// It saves one pass over the vertex array but writes seen per edge
	// rather than per vertex; the trade-off is measured in the ablation
	// benchmarks. Only MSBFS honors it — the parallel two-phase structure
	// is what makes MS-PBFS synchronization-free, so a direct parallel
	// variant would need per-edge CAS on seen as well.
	SinglePhaseTopDown bool
	// DisableEarlyExit turns off the bottom-up neighbor-scan early exit
	// (the "stop once all active BFS bits are set" optimization); used by
	// the ablation benchmarks.
	DisableEarlyExit bool
	// Engine optionally supplies the long-lived execution substrate —
	// persistent worker pools (every run borrows one of Workers width and
	// returns it when done) plus the arena recycling states, bitmaps,
	// kernel scratch and level rows. When nil, the shared package-default
	// engine is used, so repeated calls are allocation-churn free either
	// way; wire an explicit engine to isolate a subsystem's recycling (one
	// engine per daemon, per test, per benchmark).
	Engine *Engine
	// Tracer, when non-nil, records a flight record for every traversal:
	// one entry per BFS iteration with the direction decision and its
	// reason, frontier/next/visited counts, wall time, per-worker
	// task/steal counts, and engine arena hit/miss deltas. Nil (the
	// default) is free — the kernels pay one pointer test per iteration.
	Tracer *obs.Tracer
	// Overlay optionally layers a sorted per-vertex overflow adjacency —
	// streamed edge inserts not yet compacted into the CSR (see
	// internal/dyngraph) — over the graph. The effective neighbor set of v
	// becomes Neighbors(v) ∪ Overlay.Extra(v); MS-PBFS, SMS-PBFS, the
	// sequential MS-BFS and the reference oracle fuse the overlay scan into
	// their inner loops, and their degree accounting includes the overlay so
	// direction decisions match the compacted CSR exactly. The overlay must
	// be immutable for the duration of the run (dyngraph snapshots guarantee
	// this); kernels without fused support panic on a non-nil Overlay rather
	// than silently traversing a stale view.
	Overlay *graph.Overlay
	// OnVisit, when non-nil, is called for every (source, vertex)
	// discovery with the BFS depth. It is invoked concurrently from
	// worker goroutines; implementations typically accumulate into
	// workerID-indexed buckets. sourceIdx is the index within the
	// processed batch for multi-source runs and 0 for single-source runs.
	OnVisit func(workerID, sourceIdx, vertex, depth int)
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

// splitStride is the granularity task sizes are rounded to: 512 vertices is
// one 4096-byte page of 64-bit-per-vertex state and a whole number of
// bitmap words, so tasks never share pages or words. The stripe owner
// first-touches its tasks' pages (Section 4.4); internal/bench's locality
// model depends on that border arithmetic.
const splitStride = 512

func (o Options) splitSize() int {
	s := o.SplitSize
	if s <= 0 {
		s = sched.DefaultSplitSize
	}
	if rem := s % splitStride; rem != 0 {
		s += splitStride - rem
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

func (o Options) collectStats() bool { return o.CollectIterStats || o.PerWorkerTiming }

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
	// WorkerBusy is the accumulated busy time per worker over the whole
	// run, used for the utilization analysis of Figure 2. Populated by the
	// parallel algorithms when they own their worker pool.
	WorkerBusy []time.Duration
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

// iterRecorder centralizes the optional per-iteration instrumentation
// shared by all parallel algorithms: metrics.IterationStat collection
// (Options.CollectIterStats) and the obs flight record (Options.Tracer).
// Both are off in the zero value and each gates itself, so kernels call
// record unconditionally on every iteration.
type iterRecorder struct {
	opt   Options
	stats []metrics.IterationStat

	// tr is the open flight record (nil when tracing is off). pool and
	// the prev* snapshots turn the pool's cumulative task/steal counters
	// into per-iteration deltas.
	tr                    *obs.Traversal
	pool                  *sched.Pool
	prevTasks, prevSteals []int64

	// pend* carry the scatter/apply and direction-heuristic extras the
	// kernels supply via noteScatter/noteApply/noteHeuristic between
	// phases and iterations; record consumes and clears them.
	pendScatterSteals int64
	pendMergeWords    int64
	pendWorkerMerge   []int64
	pendFrontEdges    int64
	pendUnexplored    int64
}

// noteScatter takes the steals made so far in the level. Called between a
// top-down level's scatter and apply phases, that is the scatter's share of
// the level's steals: internal/bench needs it to tell a stolen scatter task
// (its writes land in the thief's own stripe and inbox) from a stolen
// resolve task.
func (r *iterRecorder) noteScatter() {
	if r.tr == nil || r.pool == nil {
		return
	}
	var steals int64
	for _, c := range r.pool.StealCounts(nil) {
		steals += c
	}
	for _, c := range r.prevSteals {
		steals -= c
	}
	r.pendScatterSteals = steals
}

// noteApply takes the per-owner counts of inbox entries applied this level
// (reset with the other per-level counters) into the next record call.
func (r *iterRecorder) noteApply(applied []padCounter) {
	if r.tr == nil {
		return
	}
	r.pendWorkerMerge = counterValues(applied)
	r.pendMergeWords = sumCounters(applied)
}

// noteHeuristic supplies the direction heuristic's edge-side inputs (the
// vertex side rides in record's frontier argument) so the flight record
// pins the full decideDirection input vector per iteration.
func (r *iterRecorder) noteHeuristic(frontEdges, unexplored int64) {
	if r.tr == nil {
		return
	}
	r.pendFrontEdges, r.pendUnexplored = frontEdges, unexplored
}

// newIterRecorder opens the per-traversal instrumentation. algo and
// sources label the flight record; pool, when non-nil, contributes
// per-worker task/steal deltas per iteration. With a nil Options.Tracer
// this is exactly the old zero-value recorder.
func newIterRecorder(opt Options, algo string, sources int, pool *sched.Pool) iterRecorder {
	r := iterRecorder{opt: opt}
	if opt.Tracer != nil {
		r.tr = opt.Tracer.StartTraversal(algo, sources)
		r.tr.SetArenaBase(opt.engine().arenaCounters())
		if pool != nil {
			r.pool = pool
			r.prevTasks = pool.TaskCounts(nil)
			r.prevSteals = pool.StealCounts(nil)
		}
	}
	return r
}

// record appends one iteration's stats. The per-worker counters come in
// as the raw padded arrays so the (allocating) []int64 snapshots are only
// taken when stat collection is actually on — the kernels call record on
// every iteration, stats or not.
func (r *iterRecorder) record(iter int, dur time.Duration, busy []time.Duration,
	frontier, updated, scanned, visited int64, bottomUp bool, reason string,
	scannedC, updatedC []padCounter) {
	if r.tr != nil {
		rec := obs.IterationRecord{
			Iteration: iter,
			BottomUp:  bottomUp,
			Reason:    reason,
			Frontier:  frontier,
			Next:      updated,
			Scanned:   scanned,
			Visited:   visited,
			Duration:  dur,
		}
		if r.pool != nil {
			rec.WorkerTasks = deltaSince(r.pool.TaskCounts(nil), r.prevTasks)
			rec.WorkerSteals = deltaSince(r.pool.StealCounts(nil), r.prevSteals)
		}
		rec.FrontierEdges, rec.UnexploredEdges = r.pendFrontEdges, r.pendUnexplored
		rec.MergeWords, rec.WorkerMergeWords = r.pendMergeWords, r.pendWorkerMerge
		rec.ScatterSteals = r.pendScatterSteals
		r.pendMergeWords, r.pendWorkerMerge, r.pendScatterSteals = 0, nil, 0
		r.tr.Record(rec)
	}
	if !r.opt.collectStats() {
		return
	}
	st := metrics.IterationStat{
		Iteration:        iter,
		Duration:         dur,
		FrontierVertices: frontier,
		UpdatedStates:    updated,
		ScannedEdges:     scanned,
		BottomUp:         bottomUp,
	}
	if r.opt.PerWorkerTiming {
		st.WorkerBusy = busy
		st.ScannedPerWorker = counterValues(scannedC)
		st.UpdatedPerWorker = counterValues(updatedC)
	}
	r.stats = append(r.stats, st)
}

// finish closes the flight record, stamping the traversal's arena
// hit/miss deltas. Kernels call it once after the BFS loop.
func (r *iterRecorder) finish() {
	if r.tr != nil {
		hits, misses := r.opt.engine().arenaCounters()
		r.tr.Finish(hits, misses)
	}
}

// deltaSince turns cur, a fresh cumulative snapshot from the pool accessors,
// into cur-prev in place and advances prev to the snapshot, so prev stays
// cumulative from one iteration to the next.
func deltaSince(cur, prev []int64) []int64 {
	for i, c := range cur {
		cur[i], prev[i] = c-prev[i], c
	}
	return cur
}

// requireNoOverlay rejects a dyngraph overlay on kernels without fused
// overlay iteration: panicking beats silently traversing a stale view of a
// graph the caller believes is current. The baseline kernels (Beamer,
// QueueBFS, iBFS) exist for the paper's comparisons over static inputs.
func requireNoOverlay(opt Options, algo string) {
	if opt.Overlay != nil {
		panic("core: " + algo + " does not support Options.Overlay (dynamic snapshots); use MSPBFS, SMSPBFS, MSBFS or ReferenceBFSOverlay")
	}
}

// SourcesPerBatch returns the number of concurrent BFSs one batch of the
// given width (in 64-bit words) supports.
func SourcesPerBatch(batchWords int) int { return batchWords * 64 }
