package msbfs

import (
	"math"

	"repro/internal/graph"
)

// This file provides the BFS-based analytics that motivate multi-source
// traversal in the paper's introduction: closeness centrality (all-pairs
// shortest paths), hop-limited neighborhood sizes, reachability, and
// eccentricity/diameter estimation. All of them are thin consumers of
// MultiBFS/MultiBFSVisitor and demonstrate the intended use of the API.

// Closeness computes the closeness centrality of the given vertices:
// (reached-1) / sum-of-distances, normalized by the fraction of the graph
// reached (the Wasserman-Faust formula for disconnected graphs). Vertices
// that reach nothing get 0.
//
// One MS-PBFS batch computes up to 64*BatchWords centralities concurrently;
// the distance sums are accumulated per worker during traversal, so memory
// stays O(workers x sources), not O(sources x vertices).
func (g *Graph) Closeness(vertices []int, opt Options) []float64 {
	n := g.NumVertices()
	if len(vertices) == 0 || n == 0 {
		return nil
	}
	opt = opt.Normalize()
	workers := opt.Workers
	// Per-worker accumulation to keep the concurrent visitor race free.
	type acc struct {
		sum     []int64
		reached []int64
	}
	accs := make([]acc, workers)
	for w := range accs {
		accs[w] = acc{sum: make([]int64, len(vertices)), reached: make([]int64, len(vertices))}
	}
	opt.RecordLevels = false
	g.MultiBFSVisitor(vertices, opt, func(workerID, sourceIdx, _ int, depth int) {
		a := &accs[workerID]
		a.sum[sourceIdx] += int64(depth)
		a.reached[sourceIdx]++
	})

	out := make([]float64, len(vertices))
	for i := range vertices {
		var sum, reached int64
		for w := range accs {
			sum += accs[w].sum[i]
			reached += accs[w].reached[i]
		}
		// reached includes the source itself (depth 0).
		if reached <= 1 || sum == 0 {
			out[i] = 0
			continue
		}
		r := float64(reached - 1)
		out[i] = r / float64(sum) * r / float64(n-1)
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
	if maxHops == 0 {
		// MaxDepth 0 would mean unlimited: radius 0 is each source alone.
		out := make([]int64, len(sources))
		for i, s := range sources {
			g.checkSource(s)
			out[i] = 1
		}
		return out
	}
	opt = opt.Normalize()
	workers := opt.Workers
	counts := make([][]int64, workers)
	for w := range counts {
		counts[w] = make([]int64, len(sources))
	}
	opt.RecordLevels = false
	opt.MaxDepth = maxHops // prune the traversal instead of filtering visits
	g.MultiBFSVisitor(sources, opt, func(workerID, sourceIdx, _, _ int) {
		counts[workerID][sourceIdx]++
	})
	out := make([]int64, len(sources))
	for i := range sources {
		for w := range counts {
			out[i] += counts[w][i]
		}
	}
	return out
}

// Reachable reports, for each source, whether target is reachable from it.
// All sources are answered with one multi-source traversal.
func (g *Graph) Reachable(sources []int, target int, opt Options) []bool {
	g.checkSource(target)
	opt = opt.Normalize()
	workers := opt.Workers
	hit := make([][]bool, workers)
	for w := range hit {
		hit[w] = make([]bool, len(sources))
	}
	opt.RecordLevels = false
	g.MultiBFSVisitor(sources, opt, func(workerID, sourceIdx, vertex, _ int) {
		if vertex == target {
			hit[workerID][sourceIdx] = true
		}
	})
	out := make([]bool, len(sources))
	for i := range sources {
		for w := range hit {
			out[i] = out[i] || hit[w][i]
		}
	}
	return out
}

// Eccentricities returns, per source, the greatest BFS depth reached — the
// vertex eccentricity restricted to its connected component.
func (g *Graph) Eccentricities(sources []int, opt Options) []int32 {
	opt = opt.Normalize()
	workers := opt.Workers
	maxd := make([][]int32, workers)
	for w := range maxd {
		maxd[w] = make([]int32, len(sources))
	}
	opt.RecordLevels = false
	g.MultiBFSVisitor(sources, opt, func(workerID, sourceIdx, _ int, depth int) {
		if int32(depth) > maxd[workerID][sourceIdx] {
			maxd[workerID][sourceIdx] = int32(depth)
		}
	})
	out := make([]int32, len(sources))
	for i := range sources {
		for w := range maxd {
			if maxd[w][i] > out[i] {
				out[i] = maxd[w][i]
			}
		}
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

// LargestComponentSubgraph restricts the graph to its largest connected
// component and returns it together with the new-id -> old-id mapping. BFS
// benchmarks conventionally run on this subgraph so that every source
// reaches every vertex (the paper's strongly-connected small-world
// setting).
func (g *Graph) LargestComponentSubgraph() (*Graph, []uint32) {
	sub, oldID := graph.LargestComponentSubgraph(g.g)
	return &Graph{g: sub}, oldID
}

// DistanceMatrix returns the pairwise hop distances between the given
// vertices: dist[i][j] is the distance from vertices[i] to vertices[j]
// (NoLevel if unreachable). One multi-source traversal answers the whole
// matrix — the seed-set distance queries of graph layout and embedding
// workloads.
func (g *Graph) DistanceMatrix(vertices []int, opt Options) [][]int32 {
	k := len(vertices)
	opt = opt.Normalize()
	index := make(map[int]int, k) // vertex -> column(s); duplicates share
	for j, v := range vertices {
		g.checkSource(v)
		if _, ok := index[v]; !ok {
			index[v] = j
		}
	}
	dist := make([][]int32, k)
	for i := range dist {
		dist[i] = make([]int32, k)
		for j := range dist[i] {
			dist[i][j] = NoLevel
		}
	}
	opt.RecordLevels = false
	// Workers write disjoint (i, j) cells only when the visited vertex is
	// one of the targets; duplicates of the same target vertex are filled
	// in a post-pass.
	g.MultiBFSVisitor(vertices, opt, func(_, sourceIdx, vertex, depth int) {
		if j, ok := index[vertex]; ok {
			dist[sourceIdx][j] = int32(depth)
		}
	})
	// Duplicate target columns copy from their representative.
	for j, v := range vertices {
		if rep := index[v]; rep != j {
			for i := range dist {
				dist[i][j] = dist[i][rep]
			}
		}
	}
	return dist
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
