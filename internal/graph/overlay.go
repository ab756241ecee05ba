package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Overlay is an immutable per-vertex overflow adjacency layered over a CSR
// graph: the streamed edge inserts that have not yet been compacted into
// the base arrays. The effective neighbor set of v under an overlay is
// Neighbors(v) ∪ Extra(v); the BFS kernels fuse the overlay scan into their
// inner loops so traversal over (CSR + overlay) is byte-identical to
// traversal over the compacted CSR at the same version.
//
// The representation is copy-on-write and page-granular: vertices are
// grouped into pages of 64 extra-neighbor lists (1.5 KB) under a flat page
// table of n/64 pointers. WithEdges copies the table and the pages it
// touches and shares the rest, so each published graph version costs about
// one page per touched vertex over its predecessor. An Overlay is
// immutable once published — readers traverse it with no synchronization —
// and all list storage comes from the caller-supplied allocator, which lets
// internal/dyngraph place every list in a per-generation arena it can
// poison when the generation retires.
type Overlay struct {
	pages []*overlayPage
	arcs  int64
}

const (
	overlayPageShift = 6
	overlayPageSize  = 1 << overlayPageShift
)

// overlayPage holds the extra-neighbor lists of 64 consecutive vertices.
// Lists are sorted ascending and contain neither self-loops nor vertices
// already adjacent in the base CSR (the dedup happens at ingest time).
type overlayPage struct {
	lists [overlayPageSize][]VertexID
}

// NewOverlay returns an empty overlay for an n-vertex graph. The nil
// *Overlay is a valid empty overlay for Arcs; the per-vertex accessors
// (Extra, ExtraDegree, HasArc) require a non-nil receiver — the kernels
// hoist one `ov != nil` test per fused loop instead of paying a receiver
// check per vertex.
func NewOverlay(n int) *Overlay {
	pages := (n + overlayPageSize - 1) / overlayPageSize
	return &Overlay{pages: make([]*overlayPage, pages)}
}

// Extra returns the sorted extra-neighbor list of vertex v (nil when v has
// no overlay edges). The slice aliases the overlay's storage and must not
// be modified.
//
//bfs:hot called per frontier/unseen vertex inside every fused kernel loop
func (o *Overlay) Extra(v int) []VertexID {
	p := o.pages[v>>overlayPageShift] //bfs:bounds-ok v < n by the kernels' range invariant; pages sized to cover n
	if p == nil {
		return nil
	}
	return p.lists[v&(overlayPageSize-1)]
}

// ExtraDegree returns len(Extra(v)); split out so the degree-accounting
// call sites read like the CSR Degree they sit next to.
func (o *Overlay) ExtraDegree(v int) int {
	return len(o.Extra(v))
}

// Arcs returns the number of directed arcs the overlay adds (2 per
// undirected overlay edge) — the overlay counterpart of len(Adjacency),
// used by the direction heuristic's unexplored-edges accounting.
func (o *Overlay) Arcs() int64 {
	if o == nil {
		return 0
	}
	return o.arcs
}

// HasArc reports whether v's extra-neighbor list contains u (binary
// search); the overlay counterpart of Graph.HasEdge.
func (o *Overlay) HasArc(v int, u VertexID) bool {
	ex := o.Extra(v)
	i := sort.Search(len(ex), func(i int) bool { return ex[i] >= u })
	return i < len(ex) && ex[i] == u
}

// OverlayAlloc supplies list storage for WithEdges: it returns a zeroed
// slice of length n. nil means plain make — dyngraph passes its
// generation-arena allocator instead.
type OverlayAlloc func(n int) []VertexID

// WithEdges returns a new overlay that additionally contains the given
// edges, which must be canonical (U < V, no self-loops), in-range, and not
// already present in either the base CSR or the receiver — ingest dedup is
// the caller's job (dyngraph.ApplyEdges). The receiver is unchanged:
// untouched pages are shared, touched pages are copied, and every modified
// vertex's list is rebuilt into a fresh alloc'd slice, never aliasing the
// old backing storage (the old version's readers keep traversing it);
// alloc is called once per touched vertex, in ascending vertex order.
func (o *Overlay) WithEdges(edges []Edge, alloc OverlayAlloc) *Overlay {
	if len(edges) == 0 {
		return o
	}
	if alloc == nil {
		alloc = func(n int) []VertexID { return make([]VertexID, n) }
	}
	no := &Overlay{
		pages: append([]*overlayPage(nil), o.pages...),
		arcs:  o.arcs,
	}
	// Group the additions per vertex by sorting both arcs of every edge as
	// (source, target) keys: a vertex's run is its additions, ascending.
	arcs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		arcs = append(arcs, uint64(e.U)<<32|uint64(e.V), uint64(e.V)<<32|uint64(e.U))
	}
	slices.Sort(arcs)
	no.arcs += int64(len(arcs))
	ins := make([]VertexID, len(arcs))
	for i, a := range arcs {
		ins[i] = VertexID(a)
	}
	for lo := 0; lo < len(arcs); {
		v := int(arcs[lo] >> 32)
		hi := lo + 1
		for hi < len(arcs) && int(arcs[hi]>>32) == v {
			hi++
		}
		pi := v >> overlayPageShift
		page := no.pages[pi]
		if page == nil {
			page = &overlayPage{}
		} else if page == o.pages[pi] {
			cp := *page // copy-on-write: detach the touched page
			page = &cp
		}
		no.pages[pi] = page
		slot := v & (overlayPageSize - 1)
		old := page.lists[slot]
		merged := alloc(len(old) + hi - lo)
		mergeSorted(merged, old, ins[lo:hi])
		page.lists[slot] = merged
		lo = hi
	}
	return no
}

// mergeSorted writes the merge of the ascending lists a and b into dst,
// which must hold len(a)+len(b) ids, and returns that count.
func mergeSorted(dst, a, b []VertexID) int {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return k
}

// MergeOverlay returns the CSR that holds base with every overlay arc
// folded in: row v is the merge of Neighbors(v) and Extra(v), both already
// sorted and — by the ingest dedup WithEdges relies on — disjoint, so the
// result is byte for byte what FromEdges builds from the union of the two
// edge sets. One pass over the vertices, no sort, and the two result arrays
// are the only allocations. ov must be non-nil and sized for base, and the
// union must fit 32-bit offsets: MergeOverlay panics, naming the counts,
// when CheckArcs refuses it (dyngraph refuses the ingest first).
func MergeOverlay(base *Graph, ov *Overlay) *Graph {
	arcs := uint64(len(base.Adjacency)) + uint64(ov.Arcs())
	if err := CheckArcs(arcs); err != nil {
		panic(fmt.Sprintf("graph: MergeOverlay of %d base and %d overlay arcs: %v", len(base.Adjacency), ov.Arcs(), err))
	}
	n := base.NumVertices()
	offsets := make([]uint32, n+1)
	adj := make([]VertexID, arcs)
	k := 0
	for v := 0; v < n; v++ {
		offsets[v] = uint32(k)
		k += mergeSorted(adj[k:], base.Neighbors(v), ov.Extra(v))
	}
	offsets[n] = uint32(k)
	return &Graph{Offsets: offsets, Adjacency: adj}
}
