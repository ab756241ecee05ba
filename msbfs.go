// Package msbfs is a parallel array-based breadth-first search library for
// large dense graphs, implementing the MS-PBFS and SMS-PBFS algorithms of
// Kaufmann, Then, Kemper and Neumann ("Parallel Array-Based Single- and
// Multi-Source Breadth First Searches on Large Dense Graphs", EDBT 2017).
//
// The library replaces the queues of traditional BFS implementations with
// fixed-size arrays, eliminating the contention points of queue-based
// parallel BFSs. Work is distributed through per-worker task queues with
// low-overhead work stealing, and the novel striped vertex labeling keeps
// high-degree vertices both cache-clustered and spread across workers.
//
// # Quick start
//
//	g := msbfs.GenerateKronecker(16, 16, 42)
//	res := g.BFS(0, msbfs.Options{Workers: runtime.NumCPU()})
//	fmt.Println(res.VisitedVertices, "vertices reached")
//
// For workloads with many sources (all-pairs shortest paths, closeness
// centrality, ...), MultiBFS runs up to 512 BFS traversals concurrently,
// sharing their common work:
//
//	sources := g.RandomSources(64, 1)
//	multi := g.MultiBFS(sources, msbfs.Options{Workers: runtime.NumCPU()})
//
// Relabel the graph with the Striped scheme before heavy BFS workloads to
// get the paper's cache-friendly, skew-avoiding vertex order.
package msbfs

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
// All BFS entry points hang off this type.
type Graph struct {
	g *graph.Graph
}

// Edge is an undirected edge between two vertex ids.
type Edge = graph.Edge

// Overlay is the immutable per-vertex overflow adjacency a dynamic graph
// layers over its CSR between compactions (see internal/dyngraph). Pass
// one via Options.Overlay to traverse (CSR + overlay) as a single
// consistent view.
type Overlay = graph.Overlay

// NewGraph builds a graph with n vertices from an edge list. Self-loops and
// duplicate edges are dropped.
func NewGraph(n int, edges []Edge) *Graph {
	return &Graph{g: graph.FromEdges(n, edges)}
}

// NewGraphFromAdjacency wraps a prebuilt CSR structure (advanced use). The
// offsets/adjacency arrays are used as is and must satisfy the CSR
// invariants — the parallel kernels rely on ascending neighbor lists;
// Validate reports violations. It panics on more adjacency entries than
// 32-bit offsets address.
func NewGraphFromAdjacency(offsets, adjacency []uint32) *Graph {
	if err := graph.CheckArcs(uint64(len(adjacency))); err != nil {
		panic(err)
	}
	return &Graph{g: &graph.Graph{Offsets: offsets, Adjacency: adjacency}}
}

// GenerateKronecker produces a Graph500-style Kronecker (R-MAT) graph with
// 2^scale vertices and about edgeFactor edges per vertex. The Graph500
// benchmark uses edgeFactor 16. Endpoints follow Graph500's quadrant
// probabilities (0.57, 0.19, 0.19, 0.05), five levels drawn at a time
// from their product distribution, each five-level outcome to within
// 2^-32. The result is deterministic in (scale, edgeFactor, seed): edge i
// is a function of (seed, scale, i) only, so a larger edgeFactor draws
// the smaller one's edges first and adds to them.
// It panics, naming the argument, on a scale outside [0, 32], a negative
// edgeFactor, or 2^scale × edgeFactor edges more than one CSR build
// addresses (gen.Kronecker).
func GenerateKronecker(scale, edgeFactor int, seed uint64) *Graph {
	return &Graph{g: gen.Kronecker(gen.KroneckerParams{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})}
}

// GenerateSocial produces an LDBC-like social network graph with community
// structure, power-law degrees and high clustering.
func GenerateSocial(persons int, seed uint64) *Graph {
	return &Graph{g: gen.LDBC(persons, 5, seed)}
}

// GenerateUniform produces an Erdős–Rényi random graph with about
// avgDegree*n/2 edges.
func GenerateUniform(n, avgDegree int, seed uint64) *Graph {
	return &Graph{g: gen.Uniform(n, avgDegree, seed)}
}

// ErrBadSpec reports a graph spec that does not parse, names an unknown
// scheme or key, or gives an argument outside its generator's domain.
var ErrBadSpec = gen.ErrBadSpec

// BuildGraph builds the graph a spec names — "kron:scale=16",
// "social:n=100000,seed=7", "file:ldbc.bin"; the grammar is
// internal/gen.Spec's — checking every argument before it allocates.
func BuildGraph(spec string) (*Graph, error) {
	g, err := gen.Build(spec)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the number of undirected edges, each counted once.
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// Degree returns the number of neighbors of vertex v.
func (g *Graph) Degree(v int) int { return g.g.Degree(v) }

// Neighbors returns the sorted neighbor list of v. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []uint32 { return g.g.Neighbors(v) }

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int { return g.g.MaxDegree() }

// MemoryBytes returns the approximate in-memory size of the graph.
func (g *Graph) MemoryBytes() int64 { return g.g.MemoryBytes() }

// Validate checks the structural invariants of the CSR representation.
func (g *Graph) Validate() error { return g.g.Validate() }

// CSR exposes the graph's raw compressed-sparse-row arrays: offsets has
// NumVertices()+1 entries and vertex v's neighbors are
// adjacency[offsets[v]:offsets[v+1]]. Both slices alias the graph's
// storage and must not be modified. The cluster coordinator uses this to
// slice per-shard sub-CSRs without copying the whole graph.
func (g *Graph) CSR() (offsets, adjacency []uint32) {
	return g.g.Offsets, g.g.Adjacency
}

// Save writes the graph in the library's binary format.
func (g *Graph) Save(w io.Writer) error { return graph.Save(w, g.g) }

// SaveFile writes the graph to the named file.
func (g *Graph) SaveFile(path string) error { return graph.SaveFile(path, g.g) }

// Load reads a graph written by Save. A file loads through BuildGraph's
// "file:PATH", which also checks the CSR with Validate.
func Load(r io.Reader) (*Graph, error) {
	gg, err := graph.Load(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// LoadEdgeList parses a text edge list ("u v" per line, '#'/'%' comments,
// arbitrary vertex ids — the SNAP/KONECT interchange format). Ids are
// compacted to the dense space the BFS kernels require; the returned slice
// maps dense id -> original id.
func LoadEdgeList(r io.Reader) (*Graph, []int64, error) {
	gg, ids, err := graph.LoadEdgeList(r)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{g: gg}, ids, nil
}

// SaveEdgeList writes the graph as a text edge list (each undirected edge
// once).
func (g *Graph) SaveEdgeList(w io.Writer) error { return graph.SaveEdgeList(w, g.g) }

// RandomSources picks count random non-isolated vertices, deterministic in
// seed — the Graph500 source selection rule. A negative count panics.
func (g *Graph) RandomSources(count int, seed uint64) []int {
	if count < 0 {
		panic("msbfs: RandomSources count must be >= 0")
	}
	return core.RandomSources(g.g, count, seed)
}

// LabelingScheme selects a vertex relabeling strategy.
type LabelingScheme int

const (
	// LabelRandom assigns ids by a random permutation.
	LabelRandom LabelingScheme = iota
	// LabelDegreeOrdered assigns dense ids by descending degree (cache
	// friendly but skew prone under parallel array processing).
	LabelDegreeOrdered
	// LabelStriped is the paper's scheduling-aware labeling: degree-ordered
	// vertices dealt round-robin over the workers' stripes, the vertex
	// layout the kernels own — both cache friendly and skew avoiding.
	// Recommended before parallel BFS workloads.
	LabelStriped
)

// Relabel returns a renamed copy of the graph plus the permutation used:
// perm[oldID] = newID. For LabelStriped, workers should match the Options
// used for subsequent BFS runs. taskSize is ignored (the striped labeling
// deals over the kernels' own stripes, whose stride is fixed); it remains
// because frozen benchmark/ passes it.
func (g *Graph) Relabel(scheme LabelingScheme, workers, taskSize int, seed uint64) (*Graph, []uint32) {
	var s label.Scheme
	switch scheme {
	case LabelRandom:
		s = label.Random
	case LabelDegreeOrdered:
		s = label.DegreeOrdered
	case LabelStriped:
		s = label.Striped
	default:
		panic(fmt.Sprintf("msbfs: unknown labeling scheme %d", int(scheme)))
	}
	ng, perm := label.Apply(g.g, s, label.Params{Workers: workers, Seed: seed})
	return &Graph{g: ng}, perm
}

// Components returns the connected component id of every vertex and the
// vertex count of each component. Ids are dense and follow each
// component's smallest vertex.
func (g *Graph) Components() (comp []int32, sizes []int64) {
	return graph.Components(g.g)
}

// EdgeCounter precomputes Graph500 traversed-edge counts per source for
// GTEPS reporting.
type EdgeCounter struct{ c *metrics.EdgeCounter }

// NewEdgeCounter analyzes the graph once; EdgesFor is then O(1).
func (g *Graph) NewEdgeCounter() *EdgeCounter {
	return &EdgeCounter{c: metrics.NewEdgeCounter(g.g)}
}

// EdgesFor returns the edge count of source's connected component.
func (c *EdgeCounter) EdgesFor(source int) int64 { return c.c.EdgesFor(source) }

// EdgesForAll sums EdgesFor over the sources.
func (c *EdgeCounter) EdgesForAll(sources []int) int64 { return c.c.EdgesForAll(sources) }
