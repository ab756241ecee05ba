package msbfs

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

func socialGraph() *Graph { return GenerateSocial(1200, 7) }

func TestNewGraphAndAccessors(t *testing.T) {
	g := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(1) != 2 || g.MaxDegree() != 2 {
		t.Error("degree accessors wrong")
	}
	if nbrs := g.Neighbors(1); len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nbrs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MemoryBytes() <= 0 {
		t.Error("MemoryBytes <= 0")
	}
}

func TestBFSPanicsOnBadSource(t *testing.T) {
	g := NewGraph(3, []Edge{{U: 0, V: 1}})
	for _, bad := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BFS(%d) did not panic", bad)
				}
			}()
			g.BFS(bad, Options{})
		}()
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := GenerateUniform(300, 5, 9)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the graph")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRelabelSchemes(t *testing.T) {
	g := GenerateKronecker(9, 16, 5)
	src := g.RandomSources(1, 4)[0]
	want := g.SequentialBFS(src).Levels
	for _, scheme := range []LabelingScheme{LabelRandom, LabelDegreeOrdered, LabelStriped} {
		ng, perm := g.Relabel(scheme, 4, 512, 7)
		if ng.NumEdges() != g.NumEdges() {
			t.Fatalf("scheme %d changed edges", scheme)
		}
		got := ng.BFS(int(perm[src]), Options{Workers: 2, RecordLevels: true})
		for v := range want {
			if got.Levels[perm[v]] != want[v] {
				t.Fatalf("scheme %d distances wrong", scheme)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown scheme did not panic")
		}
	}()
	g.Relabel(LabelingScheme(9), 1, 1, 1)
}

func TestComponentsAndEdgeCounter(t *testing.T) {
	g := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	comp, sizes := g.Components()
	if len(sizes) != 2 || comp[0] != comp[2] || comp[0] == comp[3] {
		t.Errorf("components wrong: comp=%v sizes=%v", comp, sizes)
	}
	ec := g.NewEdgeCounter()
	if ec.EdgesFor(0) != 2 || ec.EdgesFor(4) != 1 {
		t.Error("edge counter wrong")
	}
	if ec.EdgesForAll([]int{0, 4}) != 3 {
		t.Error("EdgesForAll wrong")
	}
}

func TestCloseness(t *testing.T) {
	// Path 0-1-2-3-4: center has the highest closeness.
	g := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	all := []int{0, 1, 2, 3, 4}
	c := g.Closeness(all, Options{Workers: 2})
	for i := 1; i < len(c); i++ {
		if c[2] < c[i]-1e-12 {
			t.Errorf("center closeness %.4f not maximal (vertex %d has %.4f)", c[2], i, c[i])
		}
	}
	// Exact value for the center: 4 reached, sum 1+1+2+2=6 -> 4/6 * 4/4.
	want := 4.0 / 6.0
	if math.Abs(c[2]-want) > 1e-12 {
		t.Errorf("closeness(2) = %v, want %v", c[2], want)
	}
	// Isolated vertex gets 0.
	g2 := NewGraph(3, []Edge{{U: 0, V: 1}})
	c2 := g2.Closeness([]int{2}, Options{})
	if c2[0] != 0 {
		t.Errorf("isolated closeness = %v", c2[0])
	}
	if g.Closeness(nil, Options{}) != nil {
		t.Error("empty input should return nil")
	}
}

func TestNeighborhoodSizes(t *testing.T) {
	g := NewGraph(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	sizes := g.NeighborhoodSizes([]int{0, 2}, 2, Options{Workers: 2})
	if sizes[0] != 3 { // 0,1,2
		t.Errorf("2-hop neighborhood of 0 = %d, want 3", sizes[0])
	}
	if sizes[1] != 5 { // 0,1,2,3,4
		t.Errorf("2-hop neighborhood of 2 = %d, want 5", sizes[1])
	}
}

func TestReachable(t *testing.T) {
	g := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 3, V: 4}})
	got := g.Reachable([]int{0, 1, 3}, 1, Options{Workers: 2})
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Reachable[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEccentricitiesAndDiameter(t *testing.T) {
	g := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	ecc := g.Eccentricities([]int{0, 2}, Options{Workers: 2})
	if ecc[0] != 4 || ecc[1] != 2 {
		t.Errorf("eccentricities = %v, want [4 2]", ecc)
	}
	if d := g.EstimateDiameter(3, 1, Options{Workers: 2}); d != 4 {
		t.Errorf("diameter estimate = %d, want 4", d)
	}
}

func TestTopKByDegree(t *testing.T) {
	g := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}})
	top := g.TopKByDegree(2)
	if len(top) != 2 || top[0] != 0 {
		t.Errorf("TopKByDegree = %v", top)
	}
	if got := g.TopKByDegree(0); got != nil {
		t.Errorf("TopKByDegree(0) = %v", got)
	}
	if got := g.TopKByDegree(100); len(got) != 5 {
		t.Errorf("TopKByDegree(100) returned %d", len(got))
	}
}

func TestEdgeListFacadeRoundTrip(t *testing.T) {
	g := GenerateUniform(200, 4, 3)
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	if len(ids) != g2.NumVertices() {
		t.Errorf("id map has %d entries for %d vertices", len(ids), g2.NumVertices())
	}
	if _, _, err := LoadEdgeList(bytes.NewBufferString("not an edge list")); err == nil {
		t.Error("garbage accepted")
	}
}

func hasNeighbor(g *Graph, v, u int) bool {
	for _, n := range g.Neighbors(v) {
		if int(n) == u {
			return true
		}
	}
	return false
}

func TestMultiBFSVisitorConcurrencyContract(t *testing.T) {
	g := socialGraph()
	sources := g.RandomSources(64, 5)
	workers := 2
	counts := make([][]int64, workers)
	for w := range counts {
		counts[w] = make([]int64, len(sources))
	}
	res := g.MultiBFSVisitor(sources, Options{Workers: workers},
		func(workerID, sourceIdx, _, _ int) {
			counts[workerID][sourceIdx]++
		})
	var total int64
	for w := range counts {
		for _, c := range counts[w] {
			total += c
		}
	}
	if total != res.VisitedStates {
		t.Errorf("visitor saw %d discoveries, result says %d", total, res.VisitedStates)
	}
}

func TestOptionsBatchWordsValidation(t *testing.T) {
	// Out-of-domain options are clamped by Normalize at every public entry
	// point (BatchWords 9 -> 8), so user-supplied values cannot panic.
	g := NewGraph(3, []Edge{{U: 0, V: 1}})
	res := g.MultiBFS([]int{0}, Options{BatchWords: 9, RecordLevels: true})
	if len(res.Levels) != 1 || res.Levels[0][1] != 1 {
		t.Errorf("clamped run returned wrong levels: %v", res.Levels)
	}
	n := Options{Workers: -3, BatchWords: 99, MaxDepth: -1}.Normalize()
	if n.Workers != 1 || n.BatchWords != 8 || n.MaxDepth != 0 {
		t.Errorf("Normalize = %+v", n)
	}
}

func TestAutoBatchWords(t *testing.T) {
	cases := []struct{ sources, want int }{
		{0, 1}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {512, 8}, {5000, 8},
	}
	for _, c := range cases {
		if got := autoBatchWords(c.sources); got != c.want {
			t.Errorf("autoBatchWords(%d) = %d, want %d", c.sources, got, c.want)
		}
	}
	// End to end: 100 sources fit one 2-word batch and still match oracle.
	g := GenerateUniform(400, 4, 5)
	sources := g.RandomSources(100, 1)
	res := g.MultiBFS(sources, Options{Workers: 2, RecordLevels: true})
	for i, s := range sources {
		want := g.SequentialBFS(s).Levels
		for v := range want {
			if res.Levels[i][v] != want[v] {
				t.Fatalf("auto-width source #%d wrong", i)
			}
		}
	}
}
