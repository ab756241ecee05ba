package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestMSBFSPerCoreMatchesOracle(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 17))
	sources := RandomSources(g, 130, 5)
	res := MSBFSPerCore(g, sources, Options{Workers: 3, RecordLevels: true})
	checkInstanceRun(t, "percore", g, sources, res, 3)
}

// checkInstanceRun checks a per-instance run against the oracle: levels,
// source count, summed reach and one busy time per instance.
func checkInstanceRun(t *testing.T, name string, g *graph.Graph, sources []int, res *MultiResult, instances int) {
	t.Helper()
	if res.Stats.Sources != len(sources) {
		t.Fatalf("processed %d sources, want %d", res.Stats.Sources, len(sources))
	}
	var reach int64
	for i, s := range sources {
		want := ReferenceLevels(g, s)
		levelsEqual(t, fmt.Sprintf("%s/src#%d", name, i), res.Levels[i], want)
		for _, lv := range want {
			if lv != NoLevel {
				reach++
			}
		}
	}
	if res.VisitedStates != reach {
		t.Errorf("VisitedStates = %d, want the summed reference reach %d", res.VisitedStates, reach)
	}
	if len(res.WorkerBusy) != instances {
		t.Errorf("len(WorkerBusy) = %d, want one per instance (%d)", len(res.WorkerBusy), instances)
	}
}

func TestMSPBFSPerSocketMatchesOracle(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 18))
	sources := RandomSources(g, 130, 6)
	res := MSPBFSPerSocket(g, sources, 2, Options{Workers: 4, RecordLevels: true})
	checkInstanceRun(t, "persocket", g, sources, res, 2)
}

func TestSMSPBFSAllMatchesOracle(t *testing.T) {
	g := gen.LDBC(gen.LDBCDefaults(800, 9))
	sources := RandomSources(g, 5, 2)
	res := SMSPBFSAll(g, sources, BitState, Options{Workers: 2, RecordLevels: true})
	for i, s := range sources {
		levelsEqual(t, fmt.Sprintf("all/src#%d", i), res.Levels[i], ReferenceLevels(g, s))
	}
	if res.Stats.Sources != len(sources) {
		t.Errorf("Sources = %d", res.Stats.Sources)
	}
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	// Engine state must fully reset between runs: run from two different
	// sources and check the second run is untainted by the first.
	g := gen.Uniform(2000, 6, 10)
	e := NewSMSPBFSEngine(g, BitState, Options{Workers: 2, RecordLevels: true})
	defer e.Close()
	srcs := RandomSources(g, 4, 20)
	for _, s := range srcs {
		res := e.Run(s)
		levelsEqual(t, fmt.Sprintf("engine-reuse/src%d", s), res.Levels, ReferenceLevels(g, s))
	}

	me := NewMSPBFSEngine(g, Options{Workers: 2, RecordLevels: true})
	defer me.Close()
	for i := 0; i < 3; i++ {
		batch := RandomSources(g, 10, uint64(i+1))
		res := me.Run(batch)
		for j, s := range batch {
			levelsEqual(t, fmt.Sprintf("mengine-run%d/src#%d", i, j), res.Levels[j], ReferenceLevels(g, s))
		}
	}
}

func TestOnVisitCallback(t *testing.T) {
	g := pathGraph(50)
	workers := 2
	perWorker := make([][]int32, workers)
	for w := range perWorker {
		perWorker[w] = make([]int32, 50)
		for i := range perWorker[w] {
			perWorker[w][i] = -1
		}
	}
	opt := Options{
		Workers: workers,
		OnVisit: func(workerID, sourceIdx, vertex, depth int) {
			if sourceIdx != 0 {
				t.Errorf("sourceIdx = %d for single batch entry", sourceIdx)
			}
			perWorker[workerID][vertex] = int32(depth)
		},
	}
	MSPBFS(g, []int{0}, opt)
	want := ReferenceLevels(g, 0)
	for v := 0; v < 50; v++ {
		got := int32(-1)
		for w := range perWorker {
			if perWorker[w][v] >= 0 {
				got = perWorker[w][v]
			}
		}
		if got != want[v] {
			t.Errorf("OnVisit depth for vertex %d = %d, want %d", v, got, want[v])
		}
	}
}

func TestOnVisitMultiSourceIndices(t *testing.T) {
	g := pathGraph(20)
	var mu sync.Mutex
	visits := map[[2]int]int{} // (sourceIdx, vertex) -> depth
	opt := Options{
		Workers: 2,
		OnVisit: func(_, sourceIdx, vertex, depth int) {
			mu.Lock()
			visits[[2]int{sourceIdx, vertex}] = depth
			mu.Unlock()
		},
	}
	sources := []int{0, 19}
	MSPBFS(g, sources, opt)
	for i, s := range sources {
		want := ReferenceLevels(g, s)
		for v := 0; v < 20; v++ {
			if got, ok := visits[[2]int{i, v}]; !ok || int32(got) != want[v] {
				t.Errorf("source %d vertex %d: depth %d (present %v), want %d", i, v, got, ok, want[v])
			}
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

func TestDisableStealingStillCorrect(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 7))
	src := RandomSources(g, 1, 5)[0]
	want := ReferenceLevels(g, src)
	opt := Options{Workers: 4, DisableStealing: true, RecordLevels: true}
	levelsEqual(t, "nosteal/sms", SMSPBFS(g, src, BitState, opt).Levels, want)
	levelsEqual(t, "nosteal/ms", MSPBFS(g, []int{src}, opt).Levels[0], want)
}

func TestDisableEarlyExitStillCorrect(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 8))
	sources := RandomSources(g, 64, 6)
	opt := Options{Workers: 2, DisableEarlyExit: true, Direction: BottomUpOnly, RecordLevels: true}
	res := MSPBFS(g, sources, opt)
	for i, s := range sources {
		levelsEqual(t, fmt.Sprintf("noexit/src#%d", i), res.Levels[i], ReferenceLevels(g, s))
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

// Property: MS-PBFS distances equal the oracle on random graphs with random
// parallelism and batch shapes.
func TestQuickMSPBFSMatchesOracle(t *testing.T) {
	f := func(seed uint16, rawWorkers, rawSources uint8) bool {
		n := 300
		g := gen.Uniform(n, 4, uint64(seed)+1)
		workers := int(rawWorkers)%4 + 1
		numSources := int(rawSources)%10 + 1
		sources := RandomSources(g, numSources, uint64(seed)*7+1)
		if len(sources) == 0 {
			return true
		}
		res := MSPBFS(g, sources, Options{Workers: workers, RecordLevels: true})
		for i, s := range sources {
			want := ReferenceLevels(g, s)
			for v := range want {
				if res.Levels[i][v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: SMS-PBFS bit and byte variants agree with each other and the
// oracle under arbitrary direction policies.
func TestQuickSMSPBFSVariantsAgree(t *testing.T) {
	f := func(seed uint16, rawDir uint8) bool {
		g := gen.Uniform(250, 5, uint64(seed)+11)
		sources := RandomSources(g, 1, uint64(seed)+3)
		if len(sources) == 0 {
			return true
		}
		src := sources[0]
		dir := Direction(int(rawDir) % 3)
		opt := Options{Workers: 2, Direction: dir, RecordLevels: true}
		bit := SMSPBFS(g, src, BitState, opt)
		byteR := SMSPBFS(g, src, ByteState, opt)
		want := ReferenceLevels(g, src)
		for v := range want {
			if bit.Levels[v] != want[v] || byteR.Levels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
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

func TestMSBFSDirectVariantMatchesOracle(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 21))
	sources := RandomSources(g, 70, 8)
	for _, dir := range []Direction{Auto, TopDownOnly} {
		opt := Options{Direction: dir, RecordLevels: true}
		res := MSBFSDirect(g, sources, opt)
		for i, s := range sources {
			levelsEqual(t, fmt.Sprintf("direct/dir%d/src#%d", dir, i), res.Levels[i], ReferenceLevels(g, s))
		}
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
