package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestEngineReuseAcrossRuns(t *testing.T) {
	// Engine state must fully reset between runs: run from two different
	// sources and check the second run is untainted by the first.
	g := gen.Uniform(2000, 6, 10)
	e := NewSMSPBFSEngine(g, BitState, Options{Workers: 2, RecordLevels: true})
	defer e.Close()
	srcs := RandomSources(g, 4, 20)
	for _, s := range srcs {
		res := e.Run(s)
		CheckLevels(t, fmt.Sprintf("engine-reuse/src%d", s), res.Levels, ReferenceLevels(g, s))
	}

	me := NewMSPBFSEngine(g, Options{Workers: 2, RecordLevels: true})
	defer me.Close()
	for i := 0; i < 3; i++ {
		batch := RandomSources(g, 10, uint64(i+1))
		res := me.Run(batch)
		for j, s := range batch {
			CheckLevels(t, fmt.Sprintf("mengine-run%d/src#%d", i, j), res.Levels[j], ReferenceLevels(g, s))
		}
	}
}

func TestIterStatsCollected(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 4))
	src := RandomSources(g, 1, 2)[0]
	res := SMSPBFS(g, src, BitState, Options{Workers: 2, CollectIterStats: true})
	if len(res.Stats.Iterations) == 0 {
		t.Fatal("no iteration stats collected")
	}
	var updated int64
	for i, st := range res.Stats.Iterations {
		if st.Iteration != i+1 {
			t.Errorf("iteration numbering: got %d at position %d", st.Iteration, i)
		}
		updated += st.UpdatedStates
	}
	if updated != res.VisitedVertices-1 {
		t.Errorf("sum of per-iteration updates %d != visited-1 %d", updated, res.VisitedVertices-1)
	}
}

// TestPerWorkerTiming: with iteration stats on, every level carries one
// busy time per worker (the level's delta of the pool's busy clock) next
// to the per-worker scanned and updated counts, and some worker was busy.
func TestPerWorkerTiming(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(10, 5))
	src := RandomSources(g, 1, 3)[0]
	res := SMSPBFS(g, src, BitState, Options{Workers: 2, CollectIterStats: true})
	if len(res.Stats.Iterations) == 0 {
		t.Fatal("no iteration stats")
	}
	for _, st := range res.Stats.Iterations {
		if len(st.WorkerBusy) != 2 {
			t.Fatalf("WorkerBusy has %d entries", len(st.WorkerBusy))
		}
		if len(st.WorkerScanned) != 2 || len(st.WorkerUpdated) != 2 {
			t.Fatal("per-worker counters missing")
		}
		if st.WorkerBusy[0] <= 0 && st.WorkerBusy[1] <= 0 {
			t.Errorf("iteration %d: no worker busy (%v)", st.Iteration, st.WorkerBusy)
		}
		if st.Skew() < 1 {
			t.Errorf("skew %v < 1", st.Skew())
		}
	}
}

func TestRandomSources(t *testing.T) {
	g := gen.Uniform(500, 5, 40)
	a := RandomSources(g, 10, 3)
	b := RandomSources(g, 10, 3)
	if len(a) != 10 {
		t.Fatalf("got %d sources", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomSources not deterministic")
		}
		if g.Degree(a[i]) == 0 {
			t.Fatal("RandomSources picked isolated vertex")
		}
	}
	// Edgeless graph: returns empty rather than spinning.
	if got := RandomSources(graph.FromEdges(10, nil), 5, 1); len(got) != 0 {
		t.Errorf("edgeless graph returned %d sources", len(got))
	}
	if got := RandomSources(graph.FromEdges(0, nil), 5, 1); len(got) != 0 {
		t.Errorf("empty graph returned %d sources", len(got))
	}
}

func TestStateReprString(t *testing.T) {
	if BitState.String() != "bit" || ByteState.String() != "byte" {
		t.Error("StateRepr labels wrong")
	}
}

func TestSourcesPerBatch(t *testing.T) {
	if SourcesPerBatch(1) != 64 || SourcesPerBatch(8) != 512 {
		t.Error("SourcesPerBatch wrong")
	}
}

func TestMSBFSDeterminism(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 22))
	sources := RandomSources(g, 65, 9)
	opt := Options{Workers: 2, RecordLevels: true}
	a := MSPBFS(g, sources, opt)
	b := MSPBFS(g, sources, opt)
	if a.VisitedStates != b.VisitedStates {
		t.Fatalf("visited states differ: %d vs %d", a.VisitedStates, b.VisitedStates)
	}
	for i := range sources {
		for v := range a.Levels[i] {
			if a.Levels[i][v] != b.Levels[i][v] {
				t.Fatalf("levels differ at source #%d vertex %d", i, v)
			}
		}
	}
}
