package core

import (
	"testing"

	"repro/internal/gen"
)

func TestBeamerIterStats(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(10, 32))
	src := RandomSources(g, 1, 5)[0]
	res := Beamer(g, src, BeamerGAPBS, Options{CollectIterStats: true})
	if len(res.Stats.Iterations) == 0 {
		t.Fatal("no iteration stats")
	}
	sawBottomUp := false
	var updated int64
	for _, it := range res.Stats.Iterations {
		updated += it.UpdatedStates
		if it.BottomUp {
			sawBottomUp = true
		}
	}
	if updated != res.VisitedVertices-1 {
		t.Errorf("updates %d != visited-1 %d", updated, res.VisitedVertices-1)
	}
	if !sawBottomUp {
		t.Error("direction heuristic never went bottom-up on a Kronecker graph")
	}
}

func TestReferenceBFSStats(t *testing.T) {
	g := PathGraph(10)
	res := ReferenceBFS(g, 0)
	if res.VisitedVertices != 10 || res.Stats.Sources != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestEmptySourceList(t *testing.T) {
	res := MSPBFS(PathGraph(2), nil, Options{RecordLevels: true})
	if res.VisitedStates != 0 || res.Stats.Sources != 0 || len(res.Levels) != 0 {
		t.Errorf("empty source list: %d states, %d sources, %d level rows", res.VisitedStates, res.Stats.Sources, len(res.Levels))
	}
}

func TestDeriveParentsLengthMismatchPanics(t *testing.T) {
	g := PathGraph(5)
	defer func() {
		if recover() == nil {
			t.Error("mismatched level array did not panic")
		}
	}()
	DeriveParents(g, make([]int32, 3), nil)
}

func TestBrandesCoreStarExact(t *testing.T) {
	// Star: the center lies on every leaf pair's shortest path.
	g := StarGraph(6)
	scores := BrandesBetweenness(g, []int{0, 1, 2, 3, 4, 5}, Options{Workers: 2})
	want := float64(5 * 4 / 2) // C(5,2) pairs of leaves
	if scores[0] != want {
		t.Errorf("center betweenness %v, want %v", scores[0], want)
	}
}
