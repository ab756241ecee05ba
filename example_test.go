package msbfs_test

import (
	"fmt"

	msbfs "repro"
)

// A small fixed graph used by the examples:
//
//	0 - 1 - 2
//	|       |
//	3 ----- 4 - 5
func exampleGraph() *msbfs.Graph {
	return msbfs.NewGraph(6, []msbfs.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3},
		{U: 2, V: 4}, {U: 3, V: 4}, {U: 4, V: 5},
	})
}

func ExampleGraph_BFS() {
	g := exampleGraph()
	res := g.BFS(0, msbfs.Options{Workers: 2, RecordLevels: true})
	fmt.Println("visited:", res.VisitedVertices)
	fmt.Println("levels:", res.Levels)
	// Output:
	// visited: 6
	// levels: [0 1 2 1 2 3]
}

func ExampleGraph_MultiBFS() {
	g := exampleGraph()
	res := g.MultiBFS([]int{0, 5}, msbfs.Options{RecordLevels: true})
	fmt.Println("from 0:", res.Levels[0])
	fmt.Println("from 5:", res.Levels[1])
	// Output:
	// from 0: [0 1 2 1 2 3]
	// from 5: [3 3 2 2 1 0]
}

func ExampleGraph_ShortestPath() {
	g := exampleGraph()
	fmt.Println(g.ShortestPath(1, 5))
	// Output:
	// [1 2 4 5]
}

func ExampleGraph_Closeness() {
	g := exampleGraph()
	c := g.Closeness([]int{4}, msbfs.Options{})
	fmt.Printf("%.3f\n", c[4-4])
	// Output:
	// 0.714
}

func ExampleGraph_NeighborhoodSizes() {
	g := exampleGraph()
	sizes := g.NeighborhoodSizes([]int{0}, 2, msbfs.Options{})
	fmt.Println("within 2 hops of 0:", sizes[0])
	// Output:
	// within 2 hops of 0: 5
}

func ExampleGraph_Relabel() {
	g := exampleGraph()
	relabeled, perm := g.Relabel(msbfs.LabelDegreeOrdered, 1, 512, 0)
	// Vertex 4 has the highest degree (3), so it becomes id 0.
	fmt.Println("new id of vertex 4:", perm[4])
	fmt.Println("degree of new id 0:", relabeled.Degree(0))
	// Output:
	// new id of vertex 4: 0
	// degree of new id 0: 3
}

func ExampleGraph_Components() {
	g := msbfs.NewGraph(5, []msbfs.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	comp, sizes := g.Components()
	fmt.Println("components:", len(sizes))
	fmt.Println("0 and 1 together:", comp[0] == comp[1])
	fmt.Println("0 and 2 together:", comp[0] == comp[2])
	// Output:
	// components: 3
	// 0 and 1 together: true
	// 0 and 2 together: false
}
