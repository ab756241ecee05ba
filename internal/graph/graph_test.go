package graph

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// path builds the path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	var pairs []VertexID
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, VertexID(i), VertexID(i+1))
	}
	return FromPairs(n, pairs)
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g := FromEdges(3, []Edge{
		{0, 1},
		{1, 0}, // duplicate, reversed
		{0, 1}, // duplicate
		{2, 2}, // self-loop
	})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("self-loop created degree: %d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := FromEdges(5, nil)
	if g2.NumVertices() != 5 || g2.NumEdges() != 0 {
		t.Fatalf("edgeless graph: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
	if g2.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d", g2.MaxDegree())
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 3}, {0, 1}, {3, 4}})
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Error("HasEdge missing recorded edge")
	}
	if g.HasEdge(1, 3) {
		t.Error("HasEdge reports absent edge")
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 3 {
		t.Errorf("Neighbors(0) = %v, want [1 3]", nbrs)
	}
}

func TestOwnedRows(t *testing.T) {
	g := path(10)
	lo, hi := 3, 7
	base := g.Offsets[lo]
	offsets := make([]uint32, hi-lo+1)
	for i := range offsets {
		offsets[i] = g.Offsets[lo+i] - base
	}
	adj := g.Adjacency[base:g.Offsets[hi]]
	o, err := OwnedRows(10, lo, offsets, adj)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", o.NumVertices())
	}
	for v := 0; v < 10; v++ {
		want := 0
		if v >= lo && v < hi {
			want = g.Degree(v)
		}
		if o.Degree(v) != want {
			t.Errorf("Degree(%d) = %d, want %d", v, o.Degree(v), want)
		}
	}
	if nb := o.Neighbors(lo); len(nb) != 2 || nb[0] != 2 || nb[1] != 4 {
		t.Errorf("Neighbors(%d) = %v, want [2 4]", lo, nb)
	}
	if _, err := OwnedRows(10, 10, []uint32{0}, nil); err != nil {
		t.Errorf("empty slice at the end: %v", err)
	}

	for name, c := range map[string]struct {
		lo      int
		offsets []uint32
		adj     []VertexID
		want    string
	}{
		"past n":       {8, []uint32{0, 0, 0, 0}, nil, "do not fit"},
		"not rebased":  {0, []uint32{1, 1}, []VertexID{}, "not rebased"},
		"decreasing":   {0, []uint32{0, 2, 1}, []VertexID{1, 2}, "decrease"},
		"short end":    {0, []uint32{0, 1}, []VertexID{1, 2}, "offsets end"},
		"neighbor ≥ n": {0, []uint32{0, 1}, []VertexID{10}, "out of range"},
		"unsorted row": {2, []uint32{0, 2}, []VertexID{5, 1}, "not strictly ascending"},
	} {
		if _, err := OwnedRows(10, c.lo, c.offsets, c.adj); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

// TestCheckArcs: a CSR fits 32-bit offsets up to MaxEndpoints arcs, and
// past that the error names the count and matches ErrTooManyArcs.
func TestCheckArcs(t *testing.T) {
	for _, c := range []struct {
		arcs uint64
		ok   bool
	}{
		{0, true},
		{1, true},
		{math.MaxUint32 - 1, true},
		{math.MaxUint32, true},
		{math.MaxUint32 + 1, false},
		{1 << 40, false},
		{math.MaxUint64, false},
	} {
		err := CheckArcs(c.arcs)
		if c.ok != (err == nil) || (err != nil && !errors.Is(err, ErrTooManyArcs)) {
			t.Errorf("CheckArcs(%d) = %v, want ok %v", c.arcs, err, c.ok)
		}
	}
}

// TestMergeOverlayPastOffsetsPanics: a merge whose arcs would not fit
// 32-bit offsets panics, naming both counts, before it allocates.
func TestMergeOverlayPastOffsetsPanics(t *testing.T) {
	base := path(4)
	ov := &Overlay{pages: NewOverlay(4).pages, arcs: MaxEndpoints}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "MergeOverlay of 6 base and 4294967295 overlay arcs") {
			t.Errorf("panic %q, want the counts named", msg)
		}
	}()
	MergeOverlay(base, ov)
}

// TestActivePrefix: the prefix ends after the last vertex with an arc or
// the last entry of any row, whichever is larger; an owned-rows CSR, whose
// rows reach past its own vertices, is bounded by its rows' last entries.
func TestActivePrefix(t *testing.T) {
	tail := FromEdges(10, []Edge{{1, 4}, {2, 3}})
	mid := FromEdges(10, []Edge{{0, 1}, {8, 9}})
	g := path(10)
	owned, err := OwnedRows(10, 2, []uint32{0, 2, 4}, g.Adjacency[g.Offsets[2]:g.Offsets[4]])
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		g    *Graph
		want int
	}{
		"no vertices":        {FromEdges(0, nil), 0},
		"edgeless":           {FromEdges(5, nil), 0},
		"isolated tail":      {tail, 5},
		"isolated mid-range": {mid, 10},
		"owned rows 2..3":    {owned, 5},
	} {
		for range 2 { // the second call reads the cache
			if got := c.g.ActivePrefix(); got != c.want {
				t.Errorf("%s: ActivePrefix() = %d, want %d", name, got, c.want)
			}
		}
	}
}

// TestActivePrefixConcurrent: the first calls on a graph may race to fill
// the cache; every caller gets the same prefix (run under -race).
func TestActivePrefixConcurrent(t *testing.T) {
	var pairs []VertexID
	for v := 0; v+1 < 3000; v++ {
		pairs = append(pairs, VertexID(v), VertexID(v+1))
	}
	g := FromPairs(5000, pairs)
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.ActivePrefix()
		}()
	}
	wg.Wait()
	for i, a := range got {
		if a != 3000 {
			t.Errorf("caller %d: ActivePrefix() = %d, want 3000", i, a)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {0, 4}, {3, 4}}
	g := FromEdges(5, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges() returned %d edges, want %d", len(out), len(in))
	}
	g2 := FromEdges(5, out)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("edge round trip changed edge count")
	}
}

// Property: FromPairs preserves the canonical edge multiset (after
// dedup/self-loop removal) for arbitrary edge lists.
func TestQuickFromPairsPreservesEdges(t *testing.T) {
	const n = 16
	f := func(raw []uint16) bool {
		want := map[[2]VertexID]bool{}
		var pairs []VertexID
		for _, r := range raw {
			u := VertexID(r>>8) % n
			v := VertexID(r&0xff) % n
			pairs = append(pairs, u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[[2]VertexID{u, v}] = true
			}
		}
		g := FromPairs(n, pairs)
		if g.Validate() != nil {
			return false
		}
		got := g.Edges()
		if len(got) != len(want) {
			return false
		}
		for _, e := range got {
			if !want[[2]VertexID{e.U, e.V}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := path(6)
	id := make([]VertexID, 6)
	for i := range id {
		id[i] = VertexID(i)
	}
	g2 := Relabel(g, id)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Errorf("identity relabel changed degree of %d", v)
		}
	}
}

func TestRelabelPermutes(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	// Reverse the ids.
	perm := []VertexID{3, 2, 1, 0}
	g2 := Relabel(g, perm)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge {0,1} becomes {3,2}, etc.
	if !g2.HasEdge(3, 2) || !g2.HasEdge(2, 1) || !g2.HasEdge(1, 0) {
		t.Error("relabeled edges missing")
	}
	if g2.HasEdge(0, 3) {
		t.Error("unexpected edge after relabel")
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := path(3)
	for _, bad := range [][]VertexID{
		{0, 0, 1},    // duplicate
		{0, 1},       // short
		{0, 1, 3},    // out of range
		{0, 1, 2, 3}, // long
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%v) did not panic", bad)
				}
			}()
			Relabel(g, bad)
		}()
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(4)
	// Break symmetry: truncate vertex 3's adjacency by lying in offsets.
	g.Offsets[4] = g.Offsets[3]
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted inconsistent offsets")
	}

	g = path(4)
	g.Adjacency[0] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range neighbor")
	}

	g = path(4)
	g.Adjacency[0] = 0 // self loop at vertex 0
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted self-loop")
	}

	// Well-formed rows that are not symmetric, with the unmatched arc
	// named in the error.
	for _, tc := range []struct {
		g    *Graph
		want string
	}{
		{&Graph{Offsets: []uint32{0, 1, 1}, Adjacency: []VertexID{1}}, "0->1 present but 1->0 missing"},
		{&Graph{Offsets: []uint32{0, 0, 1}, Adjacency: []VertexID{0}}, "1->0 present but 0->1 missing"},
		// 0-2 and 1-2 are edges; row 2 also claims 3, and 3 points at 0.
		{&Graph{Offsets: []uint32{0, 1, 2, 5, 6}, Adjacency: []VertexID{2, 2, 0, 1, 3, 0}}, "3->0 present but 0->3 missing"},
		// 1-2 is an edge; row 2 claims 0 first, which 0 never returns.
		{&Graph{Offsets: []uint32{0, 0, 1, 3}, Adjacency: []VertexID{2, 0, 1}}, "2->0 present but 0->2 missing"},
	} {
		err := tc.g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%v) = %v, want ...%s", tc.g, err, tc.want)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; vertex 5 isolated.
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comp, sizes := Components(g)
	if len(sizes) != 3 {
		t.Fatalf("found %d components, want 3", len(sizes))
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("vertices 0,1,2 not in one component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("vertices 3,4 misassigned")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("isolated vertex 5 should be its own component")
	}
	id, size := LargestComponent(sizes)
	if size != 3 || id != comp[0] {
		t.Errorf("LargestComponent = (%d, %d)", id, size)
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	id, size := LargestComponent(nil)
	if id != -1 || size != 0 {
		t.Errorf("LargestComponent(nil) = (%d, %d)", id, size)
	}
}
