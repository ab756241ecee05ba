package msbfs

import (
	"math"

	"repro/internal/core"
)

// This file provides the BFS-based analytics that motivate multi-source
// traversal in the paper's introduction: closeness centrality (all-pairs
// shortest paths), hop-limited neighborhood sizes, reachability, and
// eccentricity/diameter estimation. Each is one MultiBFSVisitor pass into a
// core.Fold, the per-source fold the query server's batches use too.

// fold runs one multi-source traversal of sources into a fold whose every
// slot has the given radius (-1: none) and targets (nil: none), all slots
// sharing one target index. A radius bounds the traversal's depth
// (Fold.DepthBound) instead of filtering visits. Memory stays
// O(workers x sources) plus the target rows, never O(sources x vertices).
func (g *Graph) fold(sources []int, opt Options, radius int, targets []int) *core.Fold {
	opt = opt.Normalize()
	opt.RecordLevels = false
	f := new(core.Fold)
	f.Reset(opt.Workers, len(sources))
	var index map[int]int
	if targets != nil {
		index = core.TargetIndex(targets)
	}
	for i := range sources {
		f.SetRadius(i, radius)
		if targets != nil {
			f.SetTargets(i, targets, index)
		}
	}
	if bound := f.DepthBound(); bound > 0 {
		opt.MaxDepth = bound
	}
	g.MultiBFSVisitor(sources, opt, f.Visit)
	return f
}

// Closeness computes the closeness centrality of the given vertices:
// (reached-1) / sum-of-distances, normalized by the fraction of the graph
// reached (the Wasserman-Faust formula for disconnected graphs). Vertices
// that reach nothing get 0. One MS-PBFS batch computes up to
// 64*BatchWords centralities concurrently.
func (g *Graph) Closeness(vertices []int, opt Options) []float64 {
	n := g.NumVertices()
	if len(vertices) == 0 || n == 0 {
		return nil
	}
	f := g.fold(vertices, opt, -1, nil)
	out := make([]float64, len(vertices))
	for i := range out {
		out[i] = f.Tally(i).Closeness(n)
	}
	return out
}

// NeighborhoodSizes returns, for each source, the number of vertices within
// maxHops hops (including the source). This is the neighborhood enumeration
// workload from the paper's introduction. A negative maxHops panics.
func (g *Graph) NeighborhoodSizes(sources []int, maxHops int, opt Options) []int64 {
	if maxHops < 0 {
		panic("msbfs: NeighborhoodSizes maxHops must be >= 0")
	}
	f := g.fold(sources, opt, maxHops, nil)
	out := make([]int64, len(sources))
	for i := range out {
		out[i] = f.Tally(i).InRadius
	}
	return out
}

// Reachable reports, for each source, whether target is reachable from it.
// All sources are answered with one multi-source traversal. An
// out-of-range target panics.
func (g *Graph) Reachable(sources []int, target int, opt Options) []bool {
	if target < 0 || target >= g.NumVertices() {
		panic("msbfs: Reachable target vertex out of range")
	}
	f := g.fold(sources, opt, -1, []int{target})
	out := make([]bool, len(sources))
	for i := range out {
		out[i] = f.Distances(i)[0] != NoLevel
	}
	return out
}

// Eccentricities returns, per source, the greatest BFS depth reached — the
// vertex eccentricity restricted to its connected component.
func (g *Graph) Eccentricities(sources []int, opt Options) []int32 {
	f := g.fold(sources, opt, -1, nil)
	out := make([]int32, len(sources))
	for i := range out {
		out[i] = f.Tally(i).MaxDepth
	}
	return out
}

// EstimateDiameter lower-bounds the graph diameter by running BFS from
// sample random sources plus the endpoint of the deepest traversal found
// (a double-sweep heuristic). It returns the largest eccentricity observed.
func (g *Graph) EstimateDiameter(samples int, seed uint64, opt Options) int32 {
	if samples < 1 {
		samples = 1
	}
	sources := g.RandomSources(samples, seed)
	if len(sources) == 0 {
		return 0
	}
	opt.RecordLevels = true
	best := int32(0)
	// First sweep: find the deepest vertex over all sampled sources.
	deepestVertex, deepest := -1, int32(-1)
	res := g.MultiBFS(sources, opt)
	for i := range res.Sources {
		for v, d := range res.Levels[i] {
			if d > deepest {
				deepest, deepestVertex = d, v
			}
		}
	}
	best = deepest
	// Second sweep from the far endpoint.
	if deepestVertex >= 0 {
		ecc := g.Eccentricities([]int{deepestVertex}, opt)
		if len(ecc) == 1 && ecc[0] > best {
			best = ecc[0]
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// TopKByDegree returns the k highest-degree vertices (ties broken by id),
// a convenient seed set for centrality workloads.
func (g *Graph) TopKByDegree(k int) []int {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Selection via a simple bounded insertion; k is small in practice.
	type dv struct {
		d, v int
	}
	top := make([]dv, 0, k)
	worst := math.MinInt
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		if len(top) < k || d > worst {
			// Insert sorted descending by degree, ascending by id.
			pos := len(top)
			for pos > 0 && (top[pos-1].d < d) {
				pos--
			}
			top = append(top, dv{})
			copy(top[pos+1:], top[pos:])
			top[pos] = dv{d: d, v: v}
			if len(top) > k {
				top = top[:k]
			}
			worst = top[len(top)-1].d
		}
	}
	out := make([]int, len(top))
	for i, e := range top {
		out[i] = e.v
	}
	return out
}
