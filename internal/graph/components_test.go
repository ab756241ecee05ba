package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bfsComponents is the labeling Components replaced, kept as its
// reference: a search from every vertex not yet labeled, in ascending
// order, so ids are handed out in order of each component's smallest vertex.
func bfsComponents(g *graph.Graph) (comp []int32, sizes []int64) {
	n := g.NumVertices()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []graph.VertexID
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		sizes = append(sizes, 0)
		comp[s] = id
		queue = append(queue[:0], graph.VertexID(s))
		var count int64 = 1
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = id
					count++
					queue = append(queue, u)
				}
			}
		}
		sizes[id] = count
	}
	return comp, sizes
}

func checkComponents(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	comp, sizes := graph.Components(g)
	wantComp, wantSizes := bfsComponents(g)
	for v := range wantComp {
		if comp[v] != wantComp[v] {
			t.Fatalf("%s: vertex %d in component %d, the search labels it %d", name, v, comp[v], wantComp[v])
		}
	}
	if !slices.Equal(sizes, wantSizes) {
		t.Fatalf("%s: component sizes %v, the search finds %v", name, sizes, wantSizes)
	}
}

// The union-find labeling is the search's, id for id and size for size,
// over the construction grid and the Kronecker graphs the golden tests pin.
func TestComponentsMatchesBFS(t *testing.T) {
	for name, g := range graph.GridGraphs() {
		checkComponents(t, name, g)
	}
	for _, scale := range []int{8, 12, 14} {
		for _, seed := range []uint64{1, 7, 20170321} {
			checkComponents(t, fmt.Sprintf("kronecker %d/%d", scale, seed), gen.Kronecker(gen.Graph500Params(scale, seed)))
		}
	}
}

// BenchmarkComponents times the labeling against the search it replaced on
// a scale-16 Kronecker graph.
func BenchmarkComponents(b *testing.B) {
	g := gen.Kronecker(gen.Graph500Params(16, 20170321))
	for name, label := range map[string]func(*graph.Graph) ([]int32, []int64){
		"union-find": graph.Components,
		"search":     bfsComponents,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				label(g)
			}
		})
	}
}

// FuzzComponents: any byte string read as an edge list over a small vertex
// range labels exactly as the search does.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	// Two paths whose smallest vertices are their far ends, joined last.
	f.Add([]byte{9, 8, 7, 7, 6, 6, 1, 5, 4, 4, 3, 3, 2, 2, 0, 1, 3})
	f.Add([]byte{40, 39, 0, 38, 1, 37, 2, 5, 5, 10, 12, 12, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkComponents(t, "empty", graph.FromEdges(0, nil))
			return
		}
		n := int(data[0])%64 + 1
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VertexID(int(data[i]) % n), V: graph.VertexID(int(data[i+1]) % n)})
		}
		checkComponents(t, fmt.Sprintf("n=%d, %d edges", n, len(edges)), graph.FromEdges(n, edges))
	})
}
