// Package metrics provides the measurement machinery of the evaluation:
// GTEPS accounting under the Graph500 edge-counting rules, the run
// aggregate that carries the per-level records, utilization statistics,
// and the analytical memory-footprint model behind Figure 3.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// EdgeCounter precomputes, per vertex, how many edges a BFS rooted at that
// vertex traverses under the Graph500 definition: the number of input
// (undirected, deduplicated) edges in the connected component the source
// belongs to, each counted once. This is the denominator-free numerator of
// the GTEPS metric used throughout the paper's Section 5.
type EdgeCounter struct {
	comp      []int32 // component of each vertex below the active prefix
	compEdges []int64
	n         int
}

// NewEdgeCounter analyzes g once; lookups are then O(1) per source.
// It allocates only what it keeps, and only over g's active prefix: every
// vertex past it is an isolated singleton with no edge to count. The
// prefix's component labeling (graph.PrefixComponents) has its
// per-component vertex counts recounted in place as edge counts, each
// edge once.
func NewEdgeCounter(g *graph.Graph) *EdgeCounter {
	comp, edges := graph.PrefixComponents(g)
	clear(edges)
	for v := range comp {
		for _, u := range g.Neighbors(v) {
			if graph.VertexID(v) < u {
				edges[comp[v]]++
			}
		}
	}
	return &EdgeCounter{comp: comp, compEdges: edges, n: g.NumVertices()}
}

// EdgesFor returns the Graph500 traversed-edge count for a BFS from source,
// a vertex of the analyzed graph: 0 past its active prefix. A source
// outside [0, n) panics.
func (c *EdgeCounter) EdgesFor(source int) int64 {
	if source >= len(c.comp) && source < c.n {
		return 0
	}
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
	// Iterations holds the per-level records when collected
	// (core.Options.CollectIterStats).
	Iterations []obs.IterationRecord
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
