package msbfs

import (
	"math"
	"strings"
	"testing"
)

// These tests cover the adversarial inputs the query server forwards from
// untrusted clients: disconnected graphs, empty source lists, duplicate
// sources. The library contract is: structurally valid inputs always
// produce answers (never panic, whatever the graph shape); the serving
// layer rejects out-of-range ids before any traversal runs.

// disconnectedGraph builds three components: a path 0-1-2, an edge 3-4,
// and the isolated vertex 5.
func disconnectedGraph() *Graph {
	return NewGraph(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
}

func TestClosenessDisconnected(t *testing.T) {
	g := disconnectedGraph()
	got := g.Closeness([]int{0, 1, 3, 5}, Options{Workers: 2})
	// Wasserman-Faust: (reached-1)/sum * (reached-1)/(n-1).
	want := []float64{
		2.0 / 3.0 * 2.0 / 5.0, // vertex 0: dists 1,2 within its component
		2.0 / 2.0 * 2.0 / 5.0, // vertex 1: dists 1,1
		1.0 / 1.0 * 1.0 / 5.0, // vertex 3: dist 1
		0,                     // vertex 5: isolated
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("closeness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReachableDisconnected(t *testing.T) {
	g := disconnectedGraph()
	got := g.Reachable([]int{0, 3, 5, 2}, 2, Options{Workers: 2})
	want := []bool{true, false, false, true} // source == target reaches itself
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reachable[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBadArgumentsPanicByName pins that an out-of-range Reachable or
// ShortestPath target is blamed on the target, not the source, and that a
// negative RandomSources count or vertex count gets a named panic instead
// of one from inside make or an index.
func TestBadArgumentsPanicByName(t *testing.T) {
	g := disconnectedGraph()
	for _, c := range []struct {
		name, want string
		call       func()
	}{
		{"Reachable target n", "target vertex out of range", func() { g.Reachable([]int{0}, g.NumVertices(), Options{}) }},
		{"Reachable target -1", "target vertex out of range", func() { g.Reachable([]int{0}, -1, Options{}) }},
		{"Reachable source n", "source vertex out of range", func() { g.Reachable([]int{g.NumVertices()}, 0, Options{}) }},
		{"RandomSources -1", "RandomSources count", func() { g.RandomSources(-1, 1) }},
		{"ShortestPath target n", "ShortestPath target vertex out of range", func() { g.ShortestPath(0, g.NumVertices()) }},
		{"ShortestPath source -1", "source vertex out of range", func() { g.ShortestPath(-1, 0) }},
		{"NewGraph -1", "graph: negative vertex count", func() { NewGraph(-1, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, c.want) {
					t.Errorf("panicked with %q, want %q", r, c.want)
				}
			}()
			c.call()
		})
	}
}

func TestAnalyticsEmptySources(t *testing.T) {
	g := disconnectedGraph()
	if got := g.Closeness(nil, Options{}); got != nil {
		t.Errorf("Closeness(nil) = %v", got)
	}
	if got := g.Reachable([]int{}, 0, Options{}); len(got) != 0 {
		t.Errorf("Reachable(empty) = %v", got)
	}
	if got := g.NeighborhoodSizes(nil, 2, Options{}); len(got) != 0 {
		t.Errorf("NeighborhoodSizes(nil) = %v", got)
	}
	if got := g.Eccentricities(nil, Options{}); len(got) != 0 {
		t.Errorf("Eccentricities(nil) = %v", got)
	}
	if res := g.MultiBFS(nil, Options{RecordLevels: true}); len(res.Sources) != 0 || res.VisitedStates != 0 {
		t.Errorf("MultiBFS(nil) = %+v", res)
	}
	if got := g.Betweenness(nil, Options{}); len(got) != g.NumVertices() {
		// Betweenness over zero sources is the zero vector, one per vertex.
		t.Errorf("Betweenness(nil) length = %d", len(got))
	}
}

func TestAnalyticsEmptyGraph(t *testing.T) {
	g := NewGraph(0, nil)
	if got := g.Closeness([]int{}, Options{}); got != nil {
		t.Errorf("empty graph closeness = %v", got)
	}
}

func TestAnalyticsDuplicateSources(t *testing.T) {
	g := GenerateUniform(300, 5, 4)
	sources := []int{7, 7, 42, 7, 42}
	cl := g.Closeness(sources, Options{Workers: 2})
	if cl[0] != cl[1] || cl[0] != cl[3] || cl[2] != cl[4] {
		t.Errorf("duplicate sources disagree: %v", cl)
	}
	res := g.MultiBFS(sources, Options{RecordLevels: true})
	for v := range res.Levels[0] {
		if res.Levels[0][v] != res.Levels[1][v] || res.Levels[0][v] != res.Levels[3][v] {
			t.Fatalf("duplicate source levels disagree at vertex %d", v)
		}
	}
}

// TestNeighborhoodSizesDisconnected pins hop-limited counts on a graph
// where some sources saturate their component before the hop limit.
func TestNeighborhoodSizesDisconnected(t *testing.T) {
	g := disconnectedGraph()
	got := g.NeighborhoodSizes([]int{0, 3, 5}, 5, Options{Workers: 2})
	want := []int64{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("neighborhood[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestNeighborhoodSizesZeroHops pins radius 0 as each source alone: the
// traversal's MaxDepth 0 means unlimited, so a radius-0 call that reached
// it would count whole components. A negative radius and an out-of-range
// source panic.
func TestNeighborhoodSizesZeroHops(t *testing.T) {
	g := GenerateKronecker(10, 16, 1)
	sources := g.RandomSources(4, 1)
	zero := g.NeighborhoodSizes(sources, 0, Options{Workers: 2})
	one := g.NeighborhoodSizes(sources, 1, Options{Workers: 2})
	for i, s := range sources {
		if zero[i] != 1 {
			t.Errorf("source %d: hops 0 counts %d, want 1", s, zero[i])
		}
		if want := int64(1 + len(g.Neighbors(s))); one[i] > want || one[i] <= zero[i] {
			t.Errorf("source %d: hops 1 counts %d, want in (1, %d]", s, one[i], want)
		}
	}
	for _, bad := range []struct {
		sources []int
		hops    int
		want    string
	}{
		{sources, -1, "maxHops"},
		{[]int{g.NumVertices()}, 0, "source vertex out of range"},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, bad.want) {
					t.Errorf("NeighborhoodSizes(%v, %d) panicked with %q, want %q", bad.sources, bad.hops, r, bad.want)
				}
			}()
			g.NeighborhoodSizes(bad.sources, bad.hops, Options{})
		}()
	}
}
