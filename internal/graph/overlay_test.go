package graph

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

func TestOverlayWithEdgesMergesSorted(t *testing.T) {
	o := NewOverlay(8)
	o1 := o.WithEdges([]Edge{{U: 1, V: 5}, {U: 1, V: 3}}, nil)
	o2 := o1.WithEdges([]Edge{{U: 1, V: 4}, {U: 0, V: 7}}, nil)

	if got := o2.Extra(1); !reflect.DeepEqual(got, []VertexID{3, 4, 5}) {
		t.Fatalf("Extra(1) = %v, want [3 4 5]", got)
	}
	if got := o2.Extra(3); !reflect.DeepEqual(got, []VertexID{1}) {
		t.Fatalf("Extra(3) = %v, want [1]", got)
	}
	if o2.ExtraDegree(7) != 1 || o2.ExtraDegree(2) != 0 {
		t.Fatalf("ExtraDegree wrong: deg(7)=%d deg(2)=%d", o2.ExtraDegree(7), o2.ExtraDegree(2))
	}
	if o2.Arcs() != 8 {
		t.Fatalf("Arcs = %d, want 8 (4 undirected edges)", o2.Arcs())
	}
	if !o2.HasArc(1, 4) || o2.HasArc(1, 6) {
		t.Fatalf("HasArc wrong")
	}
	if got := len(o2.Edges()); got != 4 {
		t.Fatalf("Edges() returned %d edges, want 4", got)
	}
}

// TestOverlayCopyOnWrite pins the MVCC-critical property: publishing a new
// version never mutates an older one, and untouched pages are shared
// rather than copied.
func TestOverlayCopyOnWrite(t *testing.T) {
	n := 3 * overlayPageSize
	o1 := NewOverlay(n).WithEdges([]Edge{{U: 1, V: 2}}, nil)
	far := VertexID(2 * overlayPageSize) // lives on page 2
	o2 := o1.WithEdges([]Edge{{U: 1, V: 9}, {U: 5, V: far}}, nil)

	if got := o1.Extra(1); !reflect.DeepEqual(got, []VertexID{2}) {
		t.Fatalf("old version mutated: Extra(1) = %v, want [2]", got)
	}
	if o1.Extra(int(far)) != nil {
		t.Fatalf("old version mutated: Extra(far) = %v", o1.Extra(int(far)))
	}
	if got := o2.Extra(1); !reflect.DeepEqual(got, []VertexID{2, 9}) {
		t.Fatalf("new version wrong: Extra(1) = %v, want [2 9]", got)
	}
	// Page 1 was untouched by the second publish: it must be shared.
	if o1.pages[1] != o2.pages[1] {
		t.Fatalf("untouched page not shared between versions")
	}
	if o1.pages[0] == o2.pages[0] || o1.pages[2] == o2.pages[2] {
		t.Fatalf("touched pages not copied")
	}
}

// TestOverlayAllocCallback checks that all list storage is drawn from the
// caller's allocator (the hook dyngraph uses for arena placement).
func TestOverlayAllocCallback(t *testing.T) {
	var allocs, cells int
	alloc := func(n int) []VertexID {
		allocs++
		cells += n
		return make([]VertexID, n)
	}
	o := NewOverlay(16).WithEdges([]Edge{{U: 0, V: 1}, {U: 0, V: 2}}, alloc)
	if allocs != 3 { // lists for vertices 0, 1, 2
		t.Fatalf("allocator called %d times, want 3", allocs)
	}
	if cells != 4 {
		t.Fatalf("allocator asked for %d cells, want 4", cells)
	}
	if got := o.Extra(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Fatalf("Extra(0) = %v", got)
	}
}

func TestOverlayNilAndEmpty(t *testing.T) {
	var nilOv *Overlay
	if nilOv.Arcs() != 0 || nilOv.Edges() != nil {
		t.Fatalf("nil overlay accessors wrong")
	}
	empty := NewOverlay(100)
	if empty.Extra(42) != nil || empty.Arcs() != 0 {
		t.Fatalf("empty overlay accessors wrong")
	}
	if got := empty.WithEdges(nil, nil); got != empty {
		t.Fatalf("WithEdges(nil) must return the receiver unchanged")
	}
}

// ingest layers raw edges over base the way dyngraph.ApplyEdges does —
// canonical orientation, self-loops and edges already present dropped —
// publishing one WithEdges version per batch raw edges. It returns every
// version published, oldest first, starting with ov itself.
func ingest(base *Graph, ov *Overlay, edges []Edge, batch int) []*Overlay {
	versions := []*Overlay{ov}
	for len(edges) > 0 {
		k := min(batch, len(edges))
		inBatch := map[Edge]bool{}
		var accepted []Edge
		for _, e := range edges[:k] {
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if e.U == e.V || inBatch[e] || base.HasEdge(int(e.U), int(e.V)) || ov.HasArc(int(e.U), e.V) {
				continue
			}
			inBatch[e] = true
			accepted = append(accepted, e)
		}
		edges = edges[k:]
		ov = ov.WithEdges(accepted, nil)
		versions = append(versions, ov)
	}
	return versions
}

// referenceCompact is the compaction MergeOverlay replaced, kept as its
// oracle: re-extract the base's edge list, append the overlay's, rebuild.
func referenceCompact(base *Graph, ov *Overlay) *Graph {
	edges := append(base.Edges(), ov.Edges()...)
	return FromEdges(base.NumVertices(), edges)
}

// TestMergeOverlayMatchesBuild: over the construction grid, with the edges
// split between base and overlay at several points and ingested in large
// and single-edge batches, the merged CSR is byte for byte the graph built
// from all the edges at once.
func TestMergeOverlayMatchesBuild(t *testing.T) {
	for _, tc := range buildGrid() {
		want := FromEdges(tc.n, tc.edges)
		for _, cut := range []int{0, len(tc.edges) / 2, len(tc.edges)} {
			for _, batch := range []int{64, 1} {
				if batch == 1 && len(tc.edges) > 5000 {
					continue // one version per edge adds time, not coverage
				}
				base := FromEdges(tc.n, tc.edges[:cut])
				versions := ingest(base, NewOverlay(tc.n), tc.edges[cut:], batch)
				ov := versions[len(versions)-1]
				got := MergeOverlay(base, ov)
				if err := got.Validate(); err != nil {
					t.Fatalf("%s cut %d batch %d: %v", tc.name, cut, batch, err)
				}
				if !graphsEqual(got, want) || !graphsEqual(got, referenceCompact(base, ov)) {
					t.Fatalf("%s cut %d batch %d: merged CSR differs from the build", tc.name, cut, batch)
				}
				if len(got.Adjacency) != cap(got.Adjacency) {
					t.Fatalf("%s: adjacency over-allocated: len %d cap %d", tc.name, len(got.Adjacency), cap(got.Adjacency))
				}
			}
		}
	}
}

// totalAlloc returns the bytes f allocates, live or not.
func totalAlloc(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestWithEdgesAllocBudget bounds what publishing one 64-edge batch
// allocates: a 1.5 KB page per touched vertex (128 random endpoints rarely
// share one) plus the n/64-pointer page table — not a share of the graph.
// With 1024-list pages the same batch measured 0.4 MB at n = 2^14 and
// 2.5 MB at n = 2^18.
func TestWithEdgesAllocBudget(t *testing.T) {
	perBatch := func(n int) int64 {
		edges := randomEdges(n, 9*64, 0x2545f4914f6cdd1d)
		base := FromEdges(n, nil)
		versions := ingest(base, NewOverlay(n), edges[:8*64], 64)
		ov := versions[len(versions)-1]
		return totalAlloc(func() { ingest(base, ov, edges[8*64:], 64) })
	}
	small, large := perBatch(1<<14), perBatch(1<<18)
	t.Logf("one 64-edge batch allocates %d bytes at n=2^14, %d at n=2^18", small, large)
	if small > 256<<10 {
		t.Errorf("one 64-edge batch allocated %d bytes at n=2^14, budget 256 KB", small)
	}
	if large > 2*small {
		t.Errorf("one 64-edge batch allocated %d bytes at n=2^18 but %d at n=2^14: budget 2x", large, small)
	}
}

// overlayBytes sums the storage reachable from the given versions, counting
// a page table, page or list shared between them once.
func overlayBytes(versions ...*Overlay) int64 {
	var total int64
	pages := map[*overlayPage]bool{}
	lists := map[*VertexID]bool{}
	for _, o := range versions {
		total += int64(len(o.pages)) * int64(unsafe.Sizeof(o.pages[0]))
		for _, p := range o.pages {
			if p == nil || pages[p] {
				continue
			}
			pages[p] = true
			total += int64(unsafe.Sizeof(*p))
			for _, l := range p.lists {
				if len(l) > 0 && !lists[&l[0]] {
					lists[&l[0]] = true
					total += 4 * int64(len(l))
				}
			}
		}
	}
	return total
}

// TestOverlayVersionsShareStorage: the eight versions a dynamic graph
// retains by default cost less than two of them would standing alone.
func TestOverlayVersionsShareStorage(t *testing.T) {
	const n = 1 << 16
	versions := ingest(FromEdges(n, nil), NewOverlay(n), randomEdges(n, 8*64, 0x9e3779b97f4a7c15), 64)[1:]
	one, all := overlayBytes(versions[7]), overlayBytes(versions...)
	t.Logf("one version %d bytes, all eight %d (%.2fx)", one, all, float64(all)/float64(one))
	if all > 2*one {
		t.Errorf("8 retained versions hold %d bytes, one holds %d: budget 2x", all, one)
	}
}
