package core

import (
	"time"

	"repro/internal/graph"
)

// ReferenceBFS is the textbook FIFO-queue BFS. It is the correctness oracle
// for every other algorithm in this package and the GTEPS sanity baseline.
// It always records levels.
func ReferenceBFS(g *graph.Graph, source int) *Result {
	return ReferenceBFSOverlay(g, nil, source)
}

// ReferenceBFSOverlay is ReferenceBFS over (CSR + overlay): the effective
// neighbor set of v is Neighbors(v) ∪ ov.Extra(v). It is the oracle the
// dyngraph snapshot-equality suites compare every fused kernel against.
// ov may be nil.
func ReferenceBFSOverlay(g *graph.Graph, ov *graph.Overlay, source int) *Result {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = NoLevel
	}
	start := time.Now()
	// Each vertex is enqueued at most once, so an n-entry queue never
	// grows: the level array and this queue are its only n-sized arrays.
	queue := make([]graph.VertexID, 0, n)
	levels[source] = 0
	queue = append(queue, graph.VertexID(source))
	var visited int64 = 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := levels[v] + 1
		for _, u := range g.Neighbors(int(v)) {
			if levels[u] == NoLevel {
				levels[u] = d
				visited++
				queue = append(queue, u)
			}
		}
		if ov != nil {
			for _, u := range ov.Extra(int(v)) {
				if levels[u] == NoLevel {
					levels[u] = d
					visited++
					queue = append(queue, u)
				}
			}
		}
	}
	res := &Result{Levels: levels, VisitedVertices: visited}
	res.Stats.Elapsed = time.Since(start)
	res.Stats.Sources = 1
	return res
}

// ReferenceLevels runs ReferenceBFS and returns only the level array;
// a convenience for tests.
func ReferenceLevels(g *graph.Graph, source int) []int32 {
	return ReferenceBFS(g, source).Levels
}

// ReferenceLevelsOverlay is ReferenceLevels over (CSR + overlay).
func ReferenceLevelsOverlay(g *graph.Graph, ov *graph.Overlay, source int) []int32 {
	return ReferenceBFSOverlay(g, ov, source).Levels
}
