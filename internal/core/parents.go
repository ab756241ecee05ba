package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// NoParent marks a vertex outside the BFS tree in parent arrays.
const NoParent = int64(-1)

// DeriveParents computes a valid BFS parent tree from a level array: the
// parent of a vertex at depth d is its first neighbor at depth d-1, and the
// source is its own parent (the Graph500 convention). Any such assignment
// is a correct BFS tree, so deriving parents after the traversal keeps the
// array-based kernels free of per-edge parent bookkeeping — the same
// observation that lets the Graph500 reference implementations separate
// timed traversal from tree construction.
//
// The derivation runs as a parallel loop on the supplied pool (sequentially
// when pool is nil).
func DeriveParents(g *graph.Graph, levels []int32, pool *sched.Pool) []int64 {
	n := g.NumVertices()
	if len(levels) != n {
		panic(fmt.Sprintf("core: levels array has %d entries for %d vertices", len(levels), n))
	}
	parents := make([]int64, n)
	body := func(_ int, r sched.Range) {
		for v := r.Lo; v < r.Hi; v++ {
			lv := levels[v]
			switch {
			case lv == NoLevel:
				parents[v] = NoParent
			case lv == 0:
				parents[v] = int64(v) // Graph500: the root is its own parent
			default:
				parents[v] = NoParent
				for _, u := range g.Neighbors(v) {
					if levels[u] == lv-1 {
						parents[v] = int64(u)
						break
					}
				}
			}
		}
	}
	if pool == nil {
		body(0, sched.Range{Lo: 0, Hi: n})
		return parents
	}
	tq := sched.CreateTasks(n, sched.DefaultSplitSize, pool.Workers())
	pool.Run(tq, true, body)
	return parents
}

// ValidateGraph500 checks a BFS result against the Graph500 benchmark's
// result-validation rules:
//
//  1. the parent of the source is the source itself, and the source has
//     level 0;
//  2. every vertex with a parent has a level, and vice versa (the tree
//     spans exactly the visited set);
//  3. each tree edge (v, parent[v]) exists in the graph;
//  4. tree levels are consistent: level[v] = level[parent[v]] + 1;
//  5. every graph edge connects vertices whose levels differ by at most
//     one, and no edge connects a visited vertex to an unvisited one
//     (i.e. the visited set is closed — the whole component was found).
//
// It returns nil for a valid result and a descriptive error for the first
// violation found.
func ValidateGraph500(g *graph.Graph, source int, levels []int32, parents []int64) error {
	n := g.NumVertices()
	if len(levels) != n || len(parents) != n {
		return fmt.Errorf("graph500: result arrays sized %d/%d for %d vertices", len(levels), len(parents), n)
	}
	if levels[source] != 0 {
		return fmt.Errorf("graph500: source %d has level %d, want 0", source, levels[source])
	}
	if parents[source] != int64(source) {
		return fmt.Errorf("graph500: source %d has parent %d, want itself", source, parents[source])
	}
	for v := 0; v < n; v++ {
		visited := levels[v] != NoLevel
		hasParent := parents[v] != NoParent
		if visited != hasParent {
			return fmt.Errorf("graph500: vertex %d visited=%v but parent=%d", v, visited, parents[v])
		}
		if !visited {
			continue
		}
		if levels[v] < 0 || int(levels[v]) >= n {
			return fmt.Errorf("graph500: vertex %d has implausible level %d", v, levels[v])
		}
		if v == source {
			continue
		}
		p := int(parents[v])
		if p < 0 || p >= n {
			return fmt.Errorf("graph500: vertex %d has out-of-range parent %d", v, p)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("graph500: tree edge (%d, %d) not in graph", v, p)
		}
		if levels[v] != levels[p]+1 {
			return fmt.Errorf("graph500: vertex %d at level %d but parent %d at level %d",
				v, levels[v], p, levels[p])
		}
	}
	// Rule 5: edge level consistency and component closure.
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			lv, lu := levels[v], levels[u]
			if (lv == NoLevel) != (lu == NoLevel) {
				return fmt.Errorf("graph500: edge (%d, %d) crosses the visited boundary", v, u)
			}
			if lv == NoLevel {
				continue
			}
			d := lv - lu
			if d < -1 || d > 1 {
				return fmt.Errorf("graph500: edge (%d, %d) spans levels %d and %d", v, u, lv, lu)
			}
		}
	}
	return nil
}
