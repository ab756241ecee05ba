//go:build !race

// The steady-state allocation tests pin the engine's reuse contract in
// numbers: a warmed engine serves repeated traversals from recycled pools
// and state arenas, so the per-call allocation count is a small constant
// (the result structs and what they hold) and the allocated bytes stay
// far below the size of a single state array. They are excluded from
// -race builds, where the detector's instrumentation inflates allocation
// counts.

package msbfs

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestMultiBFSWarmEngineAllocs holds warm calls to the counts they
// allocate: MultiBFS 4 (two result structs, the sources copy and
// Pool.Busy's slice), BFS 2 (the core result and the root one). Any
// per-level, per-vertex or per-source allocation exceeds them.
func TestMultiBFSWarmEngineAllocs(t *testing.T) {
	g := GenerateKronecker(12, 8, 1)
	sources := g.RandomSources(64, 7)
	eng := NewEngine(Options{Workers: 2})
	defer eng.Close()
	opt := Options{Workers: 2, Engine: eng}
	for _, c := range []struct {
		name string
		want float64
		call func(opt Options)
	}{
		{"MultiBFS", 4, func(opt Options) { g.MultiBFS(sources, opt) }},
		{"BFS", 2, func(opt Options) { g.BFS(sources[0], opt) }},
	} {
		c.call(opt) // warm: the first call fills the arena
		warm := testing.AllocsPerRun(10, func() { c.call(opt) })
		if warm > c.want {
			t.Errorf("warm-engine %s: %.0f allocs/op, want <= %.0f", c.name, warm, c.want)
		}
		cold := testing.AllocsPerRun(10, func() {
			o := opt
			o.Engine = NewEngine(Options{Workers: 2})
			c.call(o)
			o.Engine.Close()
		})
		if warm >= cold {
			t.Errorf("warm engine %s (%.0f allocs/op) not cheaper than per-call engines (%.0f allocs/op)",
				c.name, warm, cold)
		}
	}
}

func TestMultiBFSWarmEngineAllocBytes(t *testing.T) {
	g := GenerateKronecker(12, 8, 1)
	sources := g.RandomSources(64, 7)
	eng := NewEngine(Options{Workers: 2})
	defer eng.Close()
	opt := Options{Workers: 2, Engine: eng}
	g.MultiBFS(sources, opt)

	const reps = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		g.MultiBFS(sources, opt)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / reps

	// One word-wide visited-state array for this graph. A warmed engine
	// must not rebuild even one of them per call — the whole point of the
	// arena — so the per-call byte count sits well under it.
	stateBytes := uint64(g.NumVertices()) * 8
	if perOp >= stateBytes {
		t.Errorf("warm-engine MultiBFS allocates %d B/op, want < one state array (%d B): arena not recycling",
			perOp, stateBytes)
	}
}

func TestMultiBFSOverlayWarmEngineAllocs(t *testing.T) {
	// The dynamic-graph serving path: a snapshot's overflow adjacency rides
	// along via Options.Overlay. Scanning it must stay allocation-free —
	// the overlay pages are read-only slices, so a warmed engine keeps the
	// same per-call constant as the static fast path.
	g := GenerateKronecker(12, 8, 1)
	n := g.NumVertices()
	extra := make([]Edge, 0, 512)
	for i := 0; i < 512; i++ {
		u := graph.VertexID((i * 2654435761) % n)
		v := graph.VertexID((i*40503 + 7) % n)
		if u != v {
			extra = append(extra, Edge{U: u, V: v})
		}
	}
	ov := graph.NewOverlay(n).WithEdges(extra, nil)
	if ov.Arcs() == 0 {
		t.Fatal("overlay unexpectedly empty")
	}
	sources := g.RandomSources(64, 7)
	eng := NewEngine(Options{Workers: 2})
	defer eng.Close()
	opt := Options{Workers: 2, Engine: eng, Overlay: ov}
	g.MultiBFS(sources, opt)

	warm := testing.AllocsPerRun(10, func() { g.MultiBFS(sources, opt) })
	if warm > 32 {
		t.Errorf("warm-engine MultiBFS with overlay: %.0f allocs/op, want <= 32", warm)
	}
}

func TestMultiBFSVisitorWarmEngineAllocs(t *testing.T) {
	g := GenerateKronecker(12, 8, 1)
	sources := g.RandomSources(64, 7)
	eng := NewEngine(Options{Workers: 2})
	defer eng.Close()
	opt := Options{Workers: 2, Engine: eng}
	visit := func(workerID, sourceIdx, vertex, depth int) {}
	g.MultiBFSVisitor(sources, opt, visit)

	warm := testing.AllocsPerRun(10, func() { g.MultiBFSVisitor(sources, opt, visit) })
	if warm > 32 {
		t.Errorf("warm-engine MultiBFSVisitor: %.0f allocs/op, want <= 32", warm)
	}
}

// The relabel of the offline set-up, GenerateKronecker then Relabel,
// allocates one arc array, sized to the relabeled graph exactly, beside its
// n-sized arrays: never a second arc array, and nothing another append could
// grow into.
func TestGenerateThenRelabelAllocatesOneArcArray(t *testing.T) {
	g0 := GenerateKronecker(14, 16, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, _ := g0.Relabel(LabelStriped, 2, 512, 1)
	runtime.ReadMemStats(&after)
	arcs := 8 * uint64(g.NumEdges())
	if got := after.TotalAlloc - before.TotalAlloc; got < arcs || got >= 2*arcs {
		t.Errorf("Relabel after GenerateKronecker allocated %d B, want one arc array (%d B) and less than a second", got, arcs)
	}
	if adj := g.g.Adjacency; cap(adj) != len(adj) {
		t.Errorf("relabeled adjacency holds %d arcs on a %d-arc array", len(adj), cap(adj))
	}
}

// The textbook BFS allocates its level array and one n-entry queue, sized
// once (each vertex is enqueued at most once), plus the two result structs:
// no queue regrowth, whatever the source reaches. The byte count is the
// least of three single calls, so a stray allocation elsewhere in the
// process (a finished test's goroutine) cannot land in it.
func TestSequentialBFSAllocs(t *testing.T) {
	g := GenerateKronecker(16, 16, 20170321)
	source := g.RandomSources(1, 20170321)[0]
	n := uint64(g.NumVertices())

	got := uint64(1<<63 - 1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g.SequentialBFS(source)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if want := 8*n + 1024; got > want {
		t.Errorf("SequentialBFS allocated %d B (%.1f·n), want <= 8·n + 1 KiB = %d B", got, float64(got)/float64(n), want)
	}

	if allocs := testing.AllocsPerRun(5, func() { g.SequentialBFS(source) }); allocs > 4 {
		t.Errorf("SequentialBFS: %.0f allocs/call, want <= 4 (two n-entry arrays and two result structs)", allocs)
	}
}
