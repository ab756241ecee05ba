package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

func TestEdgeCounter(t *testing.T) {
	// Component A: triangle {0,1,2} (3 edges); component B: edge {3,4};
	// vertex 5 isolated.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}})
	c := NewEdgeCounter(g)
	if c.EdgesFor(0) != 3 || c.EdgesFor(1) != 3 {
		t.Errorf("component A edges = %d, want 3", c.EdgesFor(0))
	}
	if c.EdgesFor(3) != 1 {
		t.Errorf("component B edges = %d, want 1", c.EdgesFor(3))
	}
	if c.EdgesFor(5) != 0 {
		t.Errorf("isolated vertex edges = %d, want 0", c.EdgesFor(5))
	}
	if got := c.EdgesForAll([]int{0, 3, 2}); got != 7 {
		t.Errorf("EdgesForAll = %d, want 7", got)
	}
}

func TestGTEPS(t *testing.T) {
	if got := GTEPS(2e9, time.Second); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("GTEPS = %v, want 2", got)
	}
	if GTEPS(100, 0) != 0 || GTEPS(100, -time.Second) != 0 {
		t.Error("non-positive duration should give 0")
	}
}

func TestUtilization(t *testing.T) {
	busy := []time.Duration{time.Second, time.Second}
	if got := Utilization(busy, time.Second); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("full utilization = %v", got)
	}
	if got := Utilization([]time.Duration{time.Second, 0}, time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half utilization = %v", got)
	}
	if Utilization(nil, time.Second) != 0 || Utilization(busy, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	// Measurement noise can push the ratio above 1; it must clamp.
	if got := Utilization([]time.Duration{2 * time.Second}, time.Second); got != 1 {
		t.Errorf("clamped utilization = %v", got)
	}
}

func TestRunStatMergeAndString(t *testing.T) {
	a := RunStat{Elapsed: time.Second, TraversedEdges: 100, Sources: 1}
	b := RunStat{Elapsed: time.Second, TraversedEdges: 200, Sources: 2,
		Iterations: []obs.IterationRecord{{Iteration: 1}}}
	a.Merge(b)
	if a.Elapsed != 2*time.Second || a.TraversedEdges != 300 || a.Sources != 3 {
		t.Errorf("Merge result: %+v", a)
	}
	if len(a.Iterations) != 1 {
		t.Error("Merge dropped iterations")
	}
	if !strings.Contains(a.String(), "sources=3") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestMemoryModelShape(t *testing.T) {
	m := DefaultMemoryModel()
	const n = 1 << 26
	// MS-BFS overhead grows linearly with threads; MS-PBFS stays flat.
	if m.MSBFSOverhead(n, 60) <= m.MSBFSOverhead(n, 6) {
		t.Error("MS-BFS overhead should grow with threads")
	}
	if m.MSPBFSOverhead(n, 60) != m.MSPBFSOverhead(n, 1) {
		t.Error("MS-PBFS overhead should be independent of threads")
	}
	// Paper's Figure 3 anchor points: with 6 threads MS-BFS state already
	// exceeds the graph; with 60 threads it exceeds 10x.
	if m.MSBFSOverhead(n, 6) < 1 {
		t.Errorf("MS-BFS @6 threads overhead = %.2f, want > 1", m.MSBFSOverhead(n, 6))
	}
	if m.MSBFSOverhead(n, 60) < 10 {
		t.Errorf("MS-BFS @60 threads overhead = %.2f, want > 10", m.MSBFSOverhead(n, 60))
	}
	// Single-instance state is a small fraction of the graph.
	if m.MSPBFSOverhead(n, 60) > 0.5 {
		t.Errorf("MS-PBFS overhead = %.2f, want well below graph size", m.MSPBFSOverhead(n, 60))
	}
}
