package graph

// Components labels the connected components of g. It returns the component
// id of every vertex and the size in vertices of each component. Ids are
// dense and follow each component's smallest vertex: the component holding
// vertex 0 is 0, the one whose smallest vertex is next smallest is 1, and so
// on. Isolated vertices form singleton components.
//
// The labeling is a union-find kept inside comp itself, so the only
// allocations are the two results. comp[v] holds v's parent, at first v
// itself, and a union always links the larger root under the smaller, so a parent is
// never larger than its child and every root is its component's smallest
// vertex. One ascending pass then turns parents into ids: a root takes the
// next id, and any other vertex copies the id its (smaller, already
// numbered) parent holds.
func Components(g *Graph) (comp []int32, sizes []int64) {
	return labelComponents(g, g.NumVertices())
}

// PrefixComponents is Components over the active prefix [0, a), a =
// g.ActivePrefix(): comp has a entries and sizes one per component that
// starts below a. The vertices at or above a are isolated, so Components
// extends this labeling with one singleton each, id len(sizes) + v - a;
// an analysis that keeps per-vertex state need not store them.
func PrefixComponents(g *Graph) (comp []int32, sizes []int64) {
	return labelComponents(g, g.ActivePrefix())
}

// labelComponents is the union-find of Components over the vertices
// [0, n) of g, which no row below n leaves (rows are symmetric, and n is
// at least the active prefix).
func labelComponents(g *Graph, n int) (comp []int32, sizes []int64) {
	comp = make([]int32, n)
	for v := range comp {
		comp[v] = int32(v)
	}
	for v := 0; v < n; v++ {
		// Each edge once, from its larger end (the row's prefix below v, as
		// rows are sorted): v itself is still a singleton root.
		rv := int32(v)
		for _, u := range g.Neighbors(v) {
			if int(u) >= v {
				break
			}
			switch ru := findRoot(comp, int32(u)); {
			case ru < rv:
				comp[rv], rv = ru, ru
			case rv < ru:
				comp[ru] = rv
			}
		}
	}
	ids := int32(0)
	for v, p := range comp {
		if p == int32(v) {
			comp[v] = ids
			ids++
		} else {
			comp[v] = comp[p]
		}
	}
	sizes = make([]int64, ids)
	for _, id := range comp {
		sizes[id]++
	}
	return comp, sizes
}

// findRoot returns the root of x in the parent array comp, halving the path
// on the way up (each visited vertex is re-pointed at its grandparent, which
// keeps parents no larger than their children).
func findRoot(comp []int32, x int32) int32 {
	for comp[x] != x {
		comp[x] = comp[comp[x]]
		x = comp[x]
	}
	return x
}

// LargestComponent returns the id and vertex count of the largest component.
// It returns (-1, 0) for an empty graph.
func LargestComponent(sizes []int64) (id int32, size int64) {
	id = -1
	for i, s := range sizes {
		if s > size {
			id, size = int32(i), s
		}
	}
	return id, size
}
