// Package metrics provides the measurement machinery of the evaluation:
// GTEPS accounting under the Graph500 edge-counting rules, per-iteration
// and per-worker timing, skew and utilization statistics, and the
// analytical memory-footprint model behind Figure 3.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// EdgeCounter precomputes, per vertex, how many edges a BFS rooted at that
// vertex traverses under the Graph500 definition: the number of input
// (undirected, deduplicated) edges in the connected component the source
// belongs to, each counted once. This is the denominator-free numerator of
// the GTEPS metric used throughout the paper's Section 5.
type EdgeCounter struct {
	comp      []int32
	compEdges []int64
}

// NewEdgeCounter analyzes g once; lookups are then O(1) per source.
func NewEdgeCounter(g *graph.Graph) *EdgeCounter {
	comp, sizes := graph.Components(g)
	edges := graph.ComponentEdges(g, comp, len(sizes))
	return &EdgeCounter{comp: comp, compEdges: edges}
}

// EdgesFor returns the Graph500 traversed-edge count for a BFS from source.
func (c *EdgeCounter) EdgesFor(source int) int64 {
	return c.compEdges[c.comp[source]]
}

// EdgesForAll sums the traversed-edge counts over a set of sources.
func (c *EdgeCounter) EdgesForAll(sources []int) int64 {
	var total int64
	for _, s := range sources {
		total += c.EdgesFor(s)
	}
	return total
}

// GTEPS converts an edge count and elapsed time into giga traversed edges
// per second. It returns 0 for non-positive durations.
func GTEPS(edges int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(edges) / elapsed.Seconds() / 1e9
}

// IterationStat captures one BFS iteration's cost and workload, feeding
// Figures 7, 8 and 9.
type IterationStat struct {
	// Iteration is the 1-based BFS depth.
	Iteration int
	// Duration is the wall-clock time of the iteration.
	Duration time.Duration
	// WorkerBusy is the per-worker busy time within the iteration
	// (nil when per-worker timing was not requested).
	WorkerBusy []time.Duration
	// FrontierVertices is the number of vertices active in the iteration
	// (for multi-source: vertices with at least one active BFS bit).
	FrontierVertices int64
	// UpdatedStates is the number of BFS vertex states newly set in the
	// iteration (multi-source: set bits; single-source: vertices).
	UpdatedStates int64
	// ScannedEdges is the number of neighbor entries examined.
	ScannedEdges int64
	// BottomUp reports whether the iteration ran in bottom-up direction.
	BottomUp bool
	// ScannedPerWorker breaks ScannedEdges down by worker (the "visited
	// neighbors per worker" quantity of Figure 6); nil unless per-worker
	// instrumentation was requested. On a parallel top-down level an entry
	// counts for the worker that writes it, the owner of the neighbor's
	// stripe; over a whole top-down traversal of a symmetric graph that is
	// each stripe's degree sum over the vertices reached.
	ScannedPerWorker []int64
	// UpdatedPerWorker breaks UpdatedStates down by worker (Figure 7);
	// nil unless per-worker instrumentation was requested.
	UpdatedPerWorker []int64
}

// Skew returns the ratio of the longest to the shortest per-worker busy
// time of the iteration, the quantity plotted in Figure 9. Workers that
// recorded zero busy time are clamped to a small epsilon so an idle worker
// shows up as large skew rather than a division by zero.
func (s IterationStat) Skew() float64 {
	if len(s.WorkerBusy) == 0 {
		return 1
	}
	min, max := s.WorkerBusy[0], s.WorkerBusy[0]
	for _, d := range s.WorkerBusy[1:] {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	const eps = time.Microsecond
	if min < eps {
		min = eps
	}
	if max < eps {
		max = eps
	}
	return float64(max) / float64(min)
}

// Utilization computes Σ busy / (wallclock × workers), the fraction of the
// machine the run kept busy — the quantity of Figure 2.
func Utilization(busy []time.Duration, wall time.Duration) float64 {
	if wall <= 0 || len(busy) == 0 {
		return 0
	}
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	u := float64(total) / (float64(wall) * float64(len(busy)))
	if u > 1 {
		u = 1
	}
	return u
}

// RunStat aggregates one full BFS (or multi-source batch) run.
type RunStat struct {
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
	// TraversedEdges is the Graph500 edge count for the processed sources.
	TraversedEdges int64
	// Iterations holds per-iteration detail when collected.
	Iterations []IterationStat
	// Sources is the number of BFS sources processed.
	Sources int
}

// GTEPS returns the run's throughput.
func (r RunStat) GTEPS() float64 { return GTEPS(r.TraversedEdges, r.Elapsed) }

// String formats the run for human consumption.
func (r RunStat) String() string {
	return fmt.Sprintf("sources=%d elapsed=%v gteps=%.2f iterations=%d",
		r.Sources, r.Elapsed.Round(time.Microsecond), r.GTEPS(), len(r.Iterations))
}

// Merge accumulates another run into r (summing time and edges), used when
// a workload is processed as several batches.
func (r *RunStat) Merge(o RunStat) {
	r.Elapsed += o.Elapsed
	r.TraversedEdges += o.TraversedEdges
	r.Sources += o.Sources
	r.Iterations = append(r.Iterations, o.Iterations...)
}
