package core

// What the package's own tests share with the oracle grid (grid_test.go,
// package core_test): the one level comparison and the hand-built graph
// shapes.

import (
	"testing"

	"repro/internal/graph"
)

// CheckLevels reports through t.Errorf where got differs from want, naming
// the first few vertices, and whether the two rows are identical. It never
// stops the test, so it is safe off the test goroutine.
func CheckLevels(t testing.TB, name string, got, want []int32) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d levels, want %d", name, len(got), len(want))
		return false
	}
	bad := 0
	for v := range want {
		if got[v] != want[v] {
			if bad < 3 {
				t.Errorf("%s: vertex %d level = %d, want %d", name, v, got[v], want[v])
			}
			bad++
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d mismatching levels", name, bad)
	}
	return bad == 0
}

// PathGraph is the chain 0-1-…-(n-1): one vertex per level.
func PathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return b.Build()
}

// StarGraph joins vertex 0 to every other vertex.
func StarGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	return b.Build()
}

// Disconnected is a 100-vertex path, 50 matched pairs and 100 isolated
// vertices, in that id order.
func Disconnected() *graph.Graph {
	b := graph.NewBuilder(300)
	for i := 0; i+1 < 100; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	for i := 100; i+1 < 200; i += 2 {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return b.Build()
}
