package graph

// GridGraphs builds every input of the construction grid (buildGrid), by
// case name, for the tests of package graph_test, which may import the
// generators.
func GridGraphs() map[string]*Graph {
	gs := map[string]*Graph{}
	for _, tc := range buildGrid() {
		gs[tc.name] = FromEdges(tc.n, tc.edges)
	}
	return gs
}

// RandomEdges is randomEdges, the construction tests' multigraph, for the
// benchmarks of package graph_test.
var RandomEdges = randomEdges

// Edges returns all overlay edges with U < V, each exactly once; only this
// package's tests read them.
func (o *Overlay) Edges() []Edge {
	if o == nil {
		return nil
	}
	var out []Edge
	for v := 0; v < len(o.pages)*overlayPageSize; v++ {
		for _, u := range o.Extra(v) {
			if VertexID(v) < u {
				out = append(out, Edge{U: VertexID(v), V: u})
			}
		}
	}
	return out
}
