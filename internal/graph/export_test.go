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
