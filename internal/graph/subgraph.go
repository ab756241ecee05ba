package graph

// InducedSubgraph extracts the subgraph induced by the vertices with
// keep[v] == true. Kept vertices receive dense new ids in ascending old-id
// order; the returned slice maps new id -> old id. Edges with either
// endpoint dropped disappear.
//
// The common use is restricting a benchmark input to its largest connected
// component so that every BFS source reaches every vertex (the
// strongly-connected small-world setting the paper assumes).
func InducedSubgraph(g *Graph, keep []bool) (*Graph, []VertexID) {
	n := g.NumVertices()
	if len(keep) != n {
		panic("graph: keep mask length mismatch")
	}
	newID := make([]int32, n)
	var oldID []VertexID
	for v := 0; v < n; v++ {
		if keep[v] {
			newID[v] = int32(len(oldID))
			oldID = append(oldID, VertexID(v))
		} else {
			newID[v] = -1
		}
	}

	offsets := make([]uint32, len(oldID)+1)
	for i, old := range oldID {
		var deg uint32
		for _, u := range g.Neighbors(int(old)) {
			if keep[u] {
				deg++
			}
		}
		offsets[i+1] = offsets[i] + deg
	}
	adj := make([]VertexID, offsets[len(oldID)])
	for i, old := range oldID {
		pos := offsets[i]
		for _, u := range g.Neighbors(int(old)) {
			if keep[u] {
				adj[pos] = VertexID(newID[u])
				pos++
			}
		}
	}
	return &Graph{Offsets: offsets, Adjacency: adj}, oldID
}

// LargestComponentSubgraph restricts g to its largest connected component
// and returns the subgraph plus the new-id -> old-id mapping.
func LargestComponentSubgraph(g *Graph) (*Graph, []VertexID) {
	comp, sizes := Components(g)
	id, _ := LargestComponent(sizes)
	keep := make([]bool, g.NumVertices())
	for v := range keep {
		keep[v] = comp[v] == id
	}
	return InducedSubgraph(g, keep)
}
