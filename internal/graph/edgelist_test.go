package graph

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestLoadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment style
0 1
1 2
2	0
`
	g, ids, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Errorf("ids = %v", ids)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEdgeListSparseIDs(t *testing.T) {
	in := "1000000 42\n42 7\n7 1000000\n"
	g, ids, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3 (compacted)", g.NumVertices())
	}
	// Dense ids in order of first appearance.
	want := []int64{1000000, 42, 7}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %d, want %d", i, ids[i], id)
		}
	}
	if g.Degree(0) != 2 {
		t.Errorf("degree of compacted 1000000 = %d", g.Degree(0))
	}
}

func TestLoadEdgeListExtraColumns(t *testing.T) {
	in := "0 1 3.5 1234567\n1 2 0.1 7654321\n"
	g, _, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m = %d", g.NumEdges())
	}
}

func TestLoadEdgeListDuplicatesAndLoops(t *testing.T) {
	in := "0 1\n1 0\n0 0\n0 1\n"
	g, _, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("m = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"missing field":  "0\n",
		"bad integer":    "0 abc\n",
		"negative id":    "0 -3\n",
		"bad first":      "x 1\n",
		"missing second": "5 \n",
	}
	for name, in := range cases {
		if _, _, err := LoadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q lacks line number", name, err)
		}
	}
}

func TestLoadEdgeListEmpty(t *testing.T) {
	g, ids, err := LoadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || len(ids) != 0 {
		t.Error("empty input should give empty graph")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {0, 5}})
	var buf bytes.Buffer
	if err := SaveEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: m=%d, want %d", g2.NumEdges(), g.NumEdges())
	}
	// The loader compacts in appearance order; map back through ids and
	// compare edge sets.
	want := map[[2]int64]bool{}
	for _, e := range g.Edges() {
		want[[2]int64{int64(e.U), int64(e.V)}] = true
	}
	for _, e := range g2.Edges() {
		a, b := ids[e.U], ids[e.V]
		if a > b {
			a, b = b, a
		}
		if !want[[2]int64{a, b}] {
			t.Fatalf("round trip invented edge (%d,%d)", a, b)
		}
		delete(want, [2]int64{a, b})
	}
	if len(want) != 0 {
		t.Fatalf("round trip lost edges: %v", want)
	}
}

// TestLoadEdgeListAcrossChunks loads a path long enough to fill every
// chunk size and several full-size chunks: each pair lands in order, so
// the graph is the path's own CSR.
func TestLoadEdgeListAcrossChunks(t *testing.T) {
	const n = 3 * maxEndpointChunk / 2 // 1.5x maxEndpointChunk edges, 3x its endpoints
	var text strings.Builder
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{U: VertexID(i), V: VertexID(i + 1)}
		fmt.Fprintf(&text, "%d %d\n", i, i+1)
	}
	g, ids, err := LoadEdgeList(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := FromEdges(n, edges)
	if len(ids) != n || !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Adjacency, want.Adjacency) {
		t.Fatalf("loaded %d ids, %d arcs; want the %d-vertex path's CSR", len(ids), len(g.Adjacency), n)
	}
}
