package graph

import (
	"fmt"
	"sync"
	"weak"
)

// Builder accumulates undirected edges and produces a deduplicated CSR
// Graph. It tolerates self-loops and duplicate edges in the input (both are
// dropped), which is what the R-MAT style generators produce.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// endpoints; generators are expected to produce valid ids and a panic here
// indicates a generator bug.
func (b *Builder) AddEdge(u, v VertexID) {
	checkEdge(b.n, u, v)
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// Build produces the CSR graph. The builder can be reused afterwards; its
// edge buffer is consumed.
func (b *Builder) Build() *Graph {
	g := FromEdges(b.n, b.edges)
	b.edges = nil
	return g
}

func checkEdge(n int, u, v VertexID) {
	if int(u) >= n || int(v) >= n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range for %d vertices", u, v, n))
	}
}

// FromEdges builds the CSR graph with n vertices from an edge list, which
// it only reads. Edges may come in either orientation and any order;
// self-loops and duplicates are dropped; an out-of-range endpoint panics.
//
// The build never sorts. Both arcs of every edge are scattered by source
// into an unsorted adjacency (counting sort on the source), and that
// adjacency is then transposed by walking the sources in ascending order.
// The arc multiset is symmetric, so the transpose has the same rows, and a
// row filled in ascending source order is sorted with duplicates adjacent;
// a final pass drops them. Memory high-water: edges + 2 × arcs × 4 bytes;
// the second arc array, the transpose scratch, goes to the arc recycler for
// a Relabel that follows.
func FromEdges(n int, edges []Edge) *Graph {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		checkEdge(n, e.U, e.V)
		if e.U != e.V {
			offsets[e.U+1]++
			offsets[e.V+1]++
		}
	}
	cursor := rowStarts(offsets)
	unsorted := make([]VertexID, offsets[n])
	for _, e := range edges {
		if e.U != e.V {
			unsorted[cursor[e.U]] = e.V
			cursor[e.U]++
			unsorted[cursor[e.V]] = e.U
			cursor[e.V]++
		}
	}
	return transposeDedup(offsets, cursor, unsorted, make([]VertexID, len(unsorted)))
}

// FromPairs is FromEdges over a flat endpoint buffer — edge i is
// {pairs[2i], pairs[2i+1]} — which it takes ownership of: once scattered,
// the buffer is reused as the transpose target, so the build allocates one
// arc array instead of two (high-water: pairs + arcs × 4 bytes), and then
// handed to the arc recycler. The caller must not touch pairs afterwards.
func FromPairs(n int, pairs []VertexID) *Graph {
	if len(pairs)%2 != 0 {
		panic("graph: odd endpoint buffer")
	}
	offsets := make([]int64, n+1)
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		checkEdge(n, u, v)
		if u != v {
			offsets[u+1]++
			offsets[v+1]++
		}
	}
	cursor := rowStarts(offsets)
	unsorted := make([]VertexID, offsets[n])
	for i := 0; i < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			unsorted[cursor[u]] = v
			cursor[u]++
			unsorted[cursor[v]] = u
			cursor[v]++
		}
	}
	return transposeDedup(offsets, cursor, unsorted, pairs[:len(unsorted)])
}

// rowStarts turns per-vertex arc counts (offsets[v+1] = degree of v) into
// CSR offsets in place and returns a scatter cursor at every row's start.
func rowStarts(offsets []int64) []int64 {
	n := len(offsets) - 1
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, offsets)
	return cursor
}

// transposeDedup is the builder core behind both front ends: unsorted
// holds a symmetric arc multiset grouped by source under offsets. It is
// transposed into scratch (len(unsorted) arcs, contents overwritten),
// which sorts every row, then deduplicated back into unsorted's storage,
// closing the gaps and rewriting offsets. Ownership of scratch passes to
// the arc recycler.
func transposeDedup(offsets, cursor []int64, unsorted, scratch []VertexID) *Graph {
	n := len(offsets) - 1
	copy(cursor, offsets)
	for u := 0; u < n; u++ {
		for _, v := range unsorted[offsets[u]:offsets[u+1]] {
			scratch[cursor[v]] = VertexID(u)
			cursor[v]++
		}
	}

	adj := unsorted[:0]
	lo := int64(0)
	for v := 0; v < n; v++ {
		row := scratch[lo:offsets[v+1]]
		lo = offsets[v+1]
		offsets[v] = int64(len(adj))
		for i, u := range row {
			if i == 0 || u != row[i-1] {
				adj = append(adj, u)
			}
		}
	}
	offsets[n] = int64(len(adj))
	recycleArcs(scratch)
	return &Graph{Offsets: offsets, Adjacency: adj[:len(adj):len(adj)]}
}

// spareArcs is the arc recycler: the one arc-sized buffer the last
// whole-graph build finished with, kept for the whole-graph relabel that
// usually follows it (generate, then relabel for the worker layout) so the
// two share one array instead of leaving one dead and allocating the next.
// The reference is weak: the recycler keeps nothing alive, the first GC
// cycle that finds the buffer otherwise unreachable empties it, and a miss
// is simply the allocation there would have been without a recycler.
var spareArcs struct {
	sync.Mutex
	buf weak.Pointer[[]VertexID]
}

// recycleArcs offers buf, which the caller is done with for good, to the
// next takeArcs; it replaces a buffer offered earlier.
func recycleArcs(buf []VertexID) {
	if cap(buf) == 0 {
		return
	}
	spareArcs.Lock()
	spareArcs.buf = weak.Make(&buf)
	spareArcs.Unlock()
}

// takeArcs returns n zeroed arcs with no spare capacity, on the recycled
// buffer if it is large enough and at most a quarter too large (the
// result must not pin much more than its own size; a Graph500 endpoint
// buffer is about 1.15 × the deduplicated arcs), freshly allocated
// otherwise. A recycled buffer is handed out once.
func takeArcs(n int64) []VertexID {
	spareArcs.Lock()
	p := spareArcs.buf.Value()
	hit := p != nil && n <= int64(cap(*p)) && int64(cap(*p)) <= n+n/4
	if hit {
		spareArcs.buf = weak.Pointer[[]VertexID]{}
	}
	spareArcs.Unlock()
	if !hit {
		return make([]VertexID, n)
	}
	buf := (*p)[:n:n]
	clear(buf)
	return buf
}

// Relabel returns a new graph in which every vertex v of g has been renamed
// to newID[v]. newID must be a permutation of [0, n); Relabel panics
// otherwise, as a non-permutation silently corrupts the graph.
//
// g must be symmetric (u in N(v) iff v in N(u), as Validate checks and
// every builder and loader in this package guarantees): new row newID[u]
// is filled by visiting the new ids nv in ascending order and appending nv
// for every u in the old neighbor list of nv, which reaches exactly u's
// neighbors, already sorted, only when each arc has its reverse. On an
// asymmetric CSR the fill produces the relabeled transpose: where a
// vertex's in-degree differs from its out-degree some row receives more or
// fewer arcs than its degree and Relabel panics (naming the first such row,
// or with an index out of range when the excess runs past the array);
// where the degrees all agree, as on a directed cycle, it returns that
// transpose laid over g's degrees, not a relabeling of g. Validate is the
// symmetry proof, not Relabel.
//
// g is only read and the result shares no storage with it; the result's
// adjacency may be recycled scratch of an earlier build (takeArcs).
func Relabel(g *Graph, newID []VertexID) *Graph {
	n := g.NumVertices()
	if len(newID) != n {
		panic(fmt.Sprintf("graph: relabel permutation has %d entries for %d vertices", len(newID), n))
	}
	// n in-range ids cover [0, n) unless one repeats, and then some id is
	// never written: its inv entry stays 0, whose new id is another one.
	inv := make([]VertexID, n)
	for v, id := range newID {
		if int(id) >= n {
			panic("graph: relabel mapping is not a permutation")
		}
		inv[id] = VertexID(v)
	}
	for id, v := range inv {
		if newID[v] != VertexID(id) {
			panic("graph: relabel mapping is not a permutation")
		}
	}

	// The offsets are their own fill cursors: cursor[nv] (= offsets[nv+1])
	// starts at row nv's start and, once the row is filled, is its end.
	offsets := make([]int64, n+1)
	cursor := offsets[1:]
	arcs := int64(0)
	for nv, v := range inv {
		cursor[nv] = arcs
		arcs += int64(g.Degree(int(v)))
	}
	adj := takeArcs(arcs)
	for nv, v := range inv {
		for _, u := range g.Neighbors(int(v)) {
			nu := newID[u]
			adj[cursor[nu]] = VertexID(nv)
			cursor[nu]++
		}
	}
	end := int64(0)
	for nv, v := range inv {
		start := end
		end += int64(g.Degree(int(v)))
		if cursor[nv] != end {
			panic(fmt.Sprintf("graph: relabel of an asymmetric graph: new row %d received %d arcs for a degree of %d",
				nv, cursor[nv]-start, end-start))
		}
	}
	return &Graph{Offsets: offsets, Adjacency: adj}
}

// InversePermutation returns the inverse of the permutation p, i.e.
// inv[p[v]] = v.
func InversePermutation(p []VertexID) []VertexID {
	inv := make([]VertexID, len(p))
	for v, id := range p {
		inv[id] = VertexID(v)
	}
	return inv
}
