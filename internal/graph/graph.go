// Package graph provides the in-memory graph substrate shared by every BFS
// algorithm in this repository: a compressed sparse row (CSR) adjacency
// representation for undirected, unweighted graphs, builders from edge
// lists, vertex relabeling, connected-component analysis, basic statistics,
// and a compact binary serialization format.
//
// Vertices are dense 32-bit identifiers in [0, NumVertices). Undirected
// edges are stored in both directions; self-loops and duplicate edges are
// removed by the builder, matching the graph model of the paper
// (Section 2).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// VertexID is a dense vertex identifier. 32 bits suffice for the graph
// scales this repository targets and halve the adjacency memory footprint
// compared to 64-bit identifiers, matching the paper's storage model
// (Table 1 assumes 32-bit vertex identifiers).
type VertexID = uint32

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V VertexID
}

// Graph is an undirected graph in CSR form: the neighbors of vertex v are
// Adjacency[Offsets[v]:Offsets[v+1]], sorted ascending.
type Graph struct {
	// Offsets has NumVertices+1 entries; Offsets[v+1]-Offsets[v] is the
	// degree of v. They are 32-bit, like the vertex ids: a CSR holds at
	// most MaxEndpoints arcs (CheckArcs).
	Offsets []uint32
	// Adjacency stores all neighbor lists back to back. Each undirected
	// edge {u,v} with u != v appears twice: v in u's list and u in v's.
	Adjacency []VertexID

	// active caches ActivePrefix()+1 (0: not computed yet).
	active atomic.Int64
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of undirected edges (each counted once).
func (g *Graph) NumEdges() int64 { return int64(len(g.Adjacency)) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the sorted neighbor list of vertex v. The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []VertexID {
	return g.Adjacency[g.Offsets[v]:g.Offsets[v+1]]
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// ActivePrefix returns one more than the largest vertex id that has an arc
// or is the last entry of a row, so every id at or above it has an empty
// row and appears in no row. A degree-ordered labeling puts the isolated
// vertices in one trailing block, which then lies past the prefix. The
// O(n) pass runs once per graph and is cached; it does not assume
// symmetric rows, so it also bounds a CSR that holds only some vertices'
// rows. The graph must not change after the first call.
func (g *Graph) ActivePrefix() int {
	if a := g.active.Load(); a > 0 {
		return int(a - 1)
	}
	a := 0
	for v := 0; v < g.NumVertices(); v++ {
		if end := g.Offsets[v+1]; end > g.Offsets[v] {
			a = max(a, v+1, int(g.Adjacency[end-1])+1)
		}
	}
	g.active.Store(int64(a) + 1)
	return a
}

// MemoryBytes returns the approximate in-memory size of the CSR arrays.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.Offsets))*4 + int64(len(g.Adjacency))*4
}

// MaxEndpoints is the most arcs a CSR holds, and the longest endpoint
// buffer FromPairs accepts: offsets, and the build's positions in the
// buffer, are 32-bit.
const MaxEndpoints = math.MaxUint32

// ErrTooManyArcs reports a CSR, or a claim of one, with more arcs than
// 32-bit offsets address.
var ErrTooManyArcs = errors.New("graph: more arcs than 32-bit offsets address")

// CheckArcs returns an ErrTooManyArcs error when a CSR of the given number
// of arcs would not fit 32-bit offsets. The builds enforce the bound
// themselves; a CSR that comes from outside them (a file, a caller's
// arrays, a shard's slice, a merge with an overlay) is checked here.
func CheckArcs(arcs uint64) error {
	if arcs > MaxEndpoints {
		return fmt.Errorf("%w: %d arcs, at most %d", ErrTooManyArcs, arcs, uint64(MaxEndpoints))
	}
	return nil
}

// Validate checks structural invariants of the CSR representation:
// monotone offsets, in-range neighbor ids, sorted neighbor lists, no
// self-loops, no duplicate neighbors, and symmetry (u in N(v) iff v in
// N(u)). It is O(V + E) and intended for tests and loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: offsets array too short")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	if int(g.Offsets[n]) != len(g.Adjacency) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.Offsets[n], len(g.Adjacency))
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		nbrs := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at position %d", v, i)
			}
		}
	}
	// Symmetry: for every arc v->u there must be an arc u->v. Rows are
	// strictly sorted, so walking the sources v in ascending order must
	// meet each row u's entries in order: next[u] is the first one not
	// yet matched, and it has to be v.
	next := make([]uint32, n)
	copy(next, g.Offsets)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			i := next[u]
			next[u]++
			if i < g.Offsets[u+1] && g.Adjacency[i] == VertexID(v) {
				continue
			}
			if i < g.Offsets[u+1] && g.Adjacency[i] < VertexID(v) {
				// Row u still waits for a source already passed.
				v, u = int(u), g.Adjacency[i]
			}
			return fmt.Errorf("graph: edge %d->%d present but %d->%d missing", v, u, u, v)
		}
	}
	return nil
}

// OwnedRows wraps the rows [lo, lo+len(offsets)-1) of an n-vertex graph as
// an n-vertex CSR whose other rows are empty. offsets are the slice's own,
// rebased to start at 0; adjacency keeps global ids and is not copied. The
// slice is checked first: offsets rebased and monotone, ending at
// len(adjacency), every id below n, every row ascending (the kernels cut
// rows at stripe borders by binary search). The end-offset check is also
// the CheckArcs bound: a uint32 offset cannot equal a longer adjacency.
// The result costs 4(n+1) bytes of offsets and is not
// symmetric, so Validate rejects it; a cluster shard runs the ordinary
// kernels over it to scan exactly the rows it owns.
func OwnedRows(n, lo int, offsets []uint32, adjacency []VertexID) (*Graph, error) {
	rows := len(offsets) - 1
	if rows < 0 || lo < 0 || lo+rows > n {
		return nil, fmt.Errorf("graph: %d rows at %d do not fit %d vertices", rows, lo, n)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets not rebased (first = %d)", offsets[0])
	}
	for i := 1; i <= rows; i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets decrease at %d", i)
		}
	}
	if int(offsets[rows]) != len(adjacency) {
		return nil, fmt.Errorf("graph: offsets end at %d, adjacency has %d", offsets[rows], len(adjacency))
	}
	for i := 0; i < rows; i++ {
		row := adjacency[offsets[i]:offsets[i+1]]
		for j, u := range row {
			if int(u) >= n {
				return nil, fmt.Errorf("graph: neighbor %d out of range [0,%d)", u, n)
			}
			if j > 0 && row[j-1] >= u {
				return nil, fmt.Errorf("graph: row %d not strictly ascending at position %d", lo+i, j)
			}
		}
	}
	full := make([]uint32, n+1)
	copy(full[lo:], offsets)
	for v := lo + rows + 1; v <= n; v++ {
		full[v] = offsets[rows]
	}
	return &Graph{Offsets: full, Adjacency: adjacency}, nil
}

// HasEdge reports whether u's neighbor list contains v (binary search).
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= VertexID(v) })
	return i < len(nbrs) && nbrs[i] == VertexID(v)
}

// Edges returns all undirected edges with U < V, each exactly once.
// Intended for tests and small graphs.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if VertexID(v) < u {
				out = append(out, Edge{U: VertexID(v), V: u})
			}
		}
	}
	return out
}
