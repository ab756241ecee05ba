package msbfs

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// This file provides point-to-point shortest paths (bidirectional BFS) and
// betweenness centrality (Brandes' algorithm), the remaining BFS-based
// workloads from the paper's introduction ("shortest path computations ...
// and centrality calculations").

// ShortestPath returns a shortest path between s and t as a vertex sequence
// starting at s and ending at t, or nil if t is unreachable from s. The
// search runs bidirectionally — two BFS frontiers expanded alternately from
// the smaller side — so point queries touch a small fraction of the graph
// even on small-world networks where a unidirectional BFS would flood it.
func (g *Graph) ShortestPath(s, t int) []int {
	g.checkSource(s)
	if t < 0 || t >= g.NumVertices() {
		panic("msbfs: ShortestPath target vertex out of range")
	}
	if s == t {
		return []int{s}
	}
	n := g.NumVertices()
	// parent>=0: visited with that parent; parentSelf marks the roots.
	fromS := make([]int32, n)
	fromT := make([]int32, n)
	for i := range fromS {
		fromS[i] = -1
		fromT[i] = -1
	}
	fromS[s] = int32(s)
	fromT[t] = int32(t)
	frontS := []graph.VertexID{graph.VertexID(s)}
	frontT := []graph.VertexID{graph.VertexID(t)}

	// expand grows one frontier by one level; it returns the new frontier
	// and, if the other side was touched, the meeting vertex.
	expand := func(front []graph.VertexID, own, other []int32) ([]graph.VertexID, int) {
		var next []graph.VertexID
		for _, v := range front {
			for _, u := range g.g.Neighbors(int(v)) {
				if own[u] >= 0 {
					continue
				}
				own[u] = int32(v)
				if other[u] >= 0 {
					return nil, int(u)
				}
				next = append(next, u)
			}
		}
		return next, -1
	}

	meet := -1
	for len(frontS) > 0 && len(frontT) > 0 {
		// Expand the cheaper side (fewer frontier edges).
		if frontierDegree(g, frontS) <= frontierDegree(g, frontT) {
			frontS, meet = expand(frontS, fromS, fromT)
		} else {
			frontT, meet = expand(frontT, fromT, fromS)
		}
		if meet >= 0 {
			break
		}
	}
	if meet < 0 {
		return nil
	}

	// Stitch the two parent chains at the meeting vertex.
	var left []int
	for v := meet; ; v = int(fromS[v]) {
		left = append(left, v)
		if v == s {
			break
		}
	}
	// left is meet..s; reverse into s..meet.
	for i, j := 0, len(left)-1; i < j; i, j = i+1, j-1 {
		left[i], left[j] = left[j], left[i]
	}
	if meet != t {
		for v := int(fromT[meet]); ; v = int(fromT[v]) {
			left = append(left, v)
			if v == t {
				break
			}
		}
	}
	return left
}

func frontierDegree(g *Graph, front []graph.VertexID) int64 {
	var d int64
	for _, v := range front {
		d += int64(g.g.Degree(int(v)))
	}
	return d
}

// Betweenness computes the betweenness centrality of every vertex using
// Brandes' algorithm over the given sources (pass all vertices for the
// exact values, or a random sample for the standard approximation). Sources
// are processed in parallel — one BFS with shortest-path counting per
// source; it complements the shared-traversal Closeness and shows the
// library's plain BFS machinery on a per-source workload. For undirected
// graphs each pair is counted twice by a full source sweep, so the result
// is halved, following Brandes' convention.
func (g *Graph) Betweenness(sources []int, opt Options) []float64 {
	for _, s := range sources {
		g.checkSource(s)
	}
	return core.BrandesBetweenness(g.g, sources, opt.Normalize().toCore())
}
