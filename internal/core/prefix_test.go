package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/numa"
	"repro/internal/obs"
)

// goldenStriped is the benchmark's layout of a golden Kronecker graph:
// striped over 2 workers with 512-vertex tasks, so its isolated vertices
// form one trailing block of ids.
func goldenStriped(scale int, seed uint64) *graph.Graph {
	g, _ := label.Apply(gen.Kronecker(gen.Graph500Params(scale, seed)), label.Striped,
		label.Params{Workers: 2, TaskSize: 512})
	return g
}

// levelTrace renders a run's per-level records and visited count as one
// line: the direction of each level (t top-down, b bottom-up), the scanned
// edges of each level, then the visited states.
func levelTrace(its []obs.IterationRecord, visited int64) string {
	var dirs strings.Builder
	scanned := make([]string, len(its))
	for i, it := range its {
		if it.BottomUp {
			dirs.WriteByte('b')
		} else {
			dirs.WriteByte('t')
		}
		scanned[i] = fmt.Sprint(it.ScannedEdges)
	}
	return fmt.Sprintf("%s %s %d", dirs.String(), strings.Join(scanned, ","), visited)
}

// pinnedLevelTraces holds the per-level direction, scanned-edge and
// visited sequences of MS-PBFS (64 sources, one word) and SMS-PBFS (16
// single-source runs, bit state) at 2 workers on the golden striped
// scale-14 graphs. The vertex space a kernel sweeps must not change what
// it decides or scans: these are the counts of the n-wide sweep.
var pinnedLevelTraces = map[string][]string{
	"ms/1": {
		"tbbbbtb 3509,425108,91039,26493,223,217,6 804032",
	},
	"sms/1": {
		"ttbbbt 4,1012,12950,1210,13,7 12563",
		"ttbbbt 2,1551,12075,925,12,6 12563",
		"ttbbtb 4,1957,11659,836,1044,6 12563",
		"tbbbt 106,29682,4514,42,36 12563",
		"ttbbbt 2,788,13466,1455,16,10 12563",
		"tttbbtb 1,33,17078,6719,116,112,6 12563",
		"ttbbtb 1,1805,11279,721,890,6 12563",
		"ttbbtb 1,1821,11192,677,840,6 12563",
		"ttbbtb 14,5603,8665,275,290,6 12563",
		"ttbbbt 6,1252,12933,1281,17,11 12563",
		"ttbbtb 5,1901,11816,874,1127,6 12563",
		"ttbbtb 28,14042,6983,143,142,6 12563",
		"tbbbt 302,18471,2761,26,20 12563",
		"tbbbtb 89,29302,4808,51,46,6 12563",
		"ttbbtb 11,4391,10012,430,473,6 12563",
		"ttbbbt 1,786,13836,1468,15,9 12563",
	},
	"ms/7": {
		"tbbbbtb 2013,426344,201105,35616,796,794,2 803264",
	},
	"sms/7": {
		"ttbbtb 1,1780,11226,711,881,2 12551",
		"ttbbbt 2,433,16152,2299,18,16 12551",
		"ttbbtb 12,2937,10981,632,765,2 12551",
		"ttbbbt 1,117,28036,4434,49,47 12551",
		"ttbbbt 1,751,13850,1581,10,8 12551",
		"ttbbtb 13,5503,9557,369,403,2 12551",
		"ttbbt 37,21835,6411,103,105 12551",
		"ttbbtb 9,4906,9790,431,487,2 12551",
		"ttbbtb 10,4220,10052,403,457,2 12551",
		"ttbbtb 30,15253,7284,143,150,2 12551",
		"ttbbt 38,15101,7409,161,173 12551",
		"ttbbbt 1,273,18247,2965,21,19 12551",
		"ttbbtb 3,2361,10935,610,751,2 12551",
		"ttbbt 13,7208,8973,276,299 12551",
		"ttbbbt 4,1133,12740,1237,6,4 12551",
		"ttbbtb 3,5736,8367,247,265,2 12551",
	},
	"ms/20170321": {
		"tbbbbtb 1962,425562,87502,24054,213,209,4 805504",
	},
	"sms/20170321": {
		"tbbbt 99,32867,4941,58,56 12586",
		"ttbbbt 2,290,19830,3007,25,21 12586",
		"ttbbtb 14,6112,8560,264,277,4 12586",
		"ttbbtb 3,2851,10662,626,724,4 12586",
		"ttbbtb 10,2370,11468,818,1015,4 12586",
		"ttbbtb 3,2216,11068,714,856,4 12586",
		"ttbbtb 27,10786,8233,220,227,4 12586",
		"ttbbtb 4,2197,11025,660,784,4 12586",
		"ttbbt 28,17244,6416,110,108 12586",
		"ttbbbt 1,298,18315,2774,24,20 12586",
		"tttbbtb 1,37,14456,7619,182,187,4 12586",
		"ttbbbt 1,305,17425,2654,23,19 12586",
		"ttbbtb 17,8768,8636,273,298,4 12586",
		"ttbbbt 2,1557,12171,1026,7,3 12586",
		"ttbbtb 13,6378,9256,330,374,4 12586",
		"tbbbtb 97,23817,4282,48,46,4 12586",
	},
}

func TestStripedLevelTracesPinned(t *testing.T) {
	for _, seed := range []uint64{1, 7, 20170321} {
		g := goldenStriped(14, seed)
		sources := RandomSources(g, 64, seed)
		opt := Options{Workers: 2, BatchWords: 1, CollectIterStats: true}

		ms := MSPBFS(g, sources, opt)
		runs := map[string][]string{
			"ms": {levelTrace(ms.Stats.Iterations, ms.VisitedStates)},
		}
		for _, s := range sources[:16] {
			r := SMSPBFS(g, s, BitState, opt)
			runs["sms"] = append(runs["sms"], levelTrace(r.Stats.Iterations, r.VisitedVertices))
		}
		for kernel, got := range runs {
			key := fmt.Sprintf("%s/%d", kernel, seed)
			if want := pinnedLevelTraces[key]; !slices.Equal(got, want) {
				t.Errorf("%s:\n got %q\nwant %q", key, got, want)
			}
		}
	}
}

// visitLog collects OnVisit calls as a multiset of (source index, vertex,
// depth) triples.
type visitLog struct {
	mu     sync.Mutex
	visits map[[3]int]int
}

func (l *visitLog) hook() func(workerID, sourceIdx, vertex, depth int) {
	l.visits = map[[3]int]int{}
	return func(_, sourceIdx, vertex, depth int) {
		l.mu.Lock()
		l.visits[[3]int{sourceIdx, vertex, depth}]++
		l.mu.Unlock()
	}
}

// checkAgainstOracle holds one multi-source run over g and ov (nil: none)
// to the textbook BFS: every level row, the visited-state total and the
// OnVisit multiset (each reached (source, vertex) pair exactly once, at its
// level).
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, ov *graph.Overlay, sources []int, res *MultiResult, log *visitLog) {
	t.Helper()
	want := map[[3]int]int{}
	var visited int64
	for i, s := range sources {
		ref := ReferenceBFSOverlay(g, ov, s)
		levelsEqual(t, fmt.Sprintf("%s source %d (vertex %d)", name, i, s), res.Levels[i], ref.Levels)
		visited += ref.VisitedVertices
		for v, lv := range ref.Levels {
			if lv != NoLevel {
				want[[3]int{i, v, int(lv)}]++
			}
		}
	}
	if res.VisitedStates != visited {
		t.Errorf("%s: VisitedStates %d, want %d", name, res.VisitedStates, visited)
	}
	if !maps.Equal(log.visits, want) {
		t.Errorf("%s: OnVisit multiset has %d distinct calls, want %d", name, len(log.visits), len(want))
	}
}

// TestActivePrefixSources: batches that mix sources below the active
// prefix with isolated ones at and past it — repeats of both included —
// match the oracle in every direction policy, width and worker count, and
// so does SMS-PBFS from either side of the prefix. So do they under an
// overlay whose arcs reach past the prefix, which makes the run's prefix n.
func TestActivePrefixSources(t *testing.T) {
	g := goldenStriped(12, 1)
	n, a := g.NumVertices(), g.ActivePrefix()
	if a >= n-8 {
		t.Fatalf("active prefix %d of %d: the striped graph should end in isolated vertices", a, n)
	}
	active := RandomSources(g, 6, 3)
	sources := []int{a, active[0], n - 1, active[1], a, active[2], a + 7, active[0], active[3], n - 1, a - 1, active[4]}
	past := graph.NewOverlay(n).WithEdges([]graph.Edge{
		{U: graph.VertexID(active[0]), V: graph.VertexID(n - 1)},
		{U: graph.VertexID(a), V: graph.VertexID(a + 7)},
	}, nil)
	for _, ov := range []*graph.Overlay{nil, past} {
		// A fresh arena per overlay: a parked shell of a larger prefix
		// would serve the run without the prefix's own.
		eng := NewEngine()
		defer eng.Close()
		for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
			for _, workers := range []int{1, 2, 3} {
				checkPrefixRuns(t, g, ov, sources, []int{a, n - 1, active[0], a - 1},
					Options{Workers: workers, Direction: dir, RecordLevels: true, Engine: eng, Overlay: ov})
			}
		}
	}
}

// checkPrefixRuns holds MS-PBFS over sources, at one and two words, and
// SMS-PBFS from each of singles, in both state representations, to the
// oracle under opt.
func checkPrefixRuns(t *testing.T, g *graph.Graph, ov *graph.Overlay, sources, singles []int, opt Options) {
	t.Helper()
	for _, words := range []int{1, 2} {
		var log visitLog
		opt := opt
		opt.BatchWords, opt.OnVisit = words, log.hook()
		name := fmt.Sprintf("MS-PBFS overlay=%v dir=%d workers=%d words=%d", ov != nil, opt.Direction, opt.Workers, words)
		checkAgainstOracle(t, name, g, ov, sources, MSPBFS(g, sources, opt), &log)
	}
	for _, s := range singles {
		for _, repr := range []StateRepr{BitState, ByteState} {
			r := SMSPBFS(g, s, repr, opt)
			ref := ReferenceBFSOverlay(g, ov, s)
			name := fmt.Sprintf("SMS-PBFS/%s overlay=%v dir=%d workers=%d source %d", repr, ov != nil, opt.Direction, opt.Workers, s)
			levelsEqual(t, name, r.Levels, ref.Levels)
			if r.VisitedVertices != ref.VisitedVertices {
				t.Errorf("%s: visited %d, want %d", name, r.VisitedVertices, ref.VisitedVertices)
			}
		}
	}
}

// TestAllIsolatedBatch: a batch whose every source lies past the active
// prefix touches no state, yet reports what the n-wide kernel reported:
// each source at level 0 and nothing else, one visited state and one
// depth-0 OnVisit per source, and one level that discovers nothing.
func TestAllIsolatedBatch(t *testing.T) {
	g := goldenStriped(12, 1)
	n, a := g.NumVertices(), g.ActivePrefix()
	sources := []int{n - 1, a, a + 3, n - 1, a + 100}
	eng := NewEngine() // a fresh arena: a parked shell of a larger prefix would serve too
	defer eng.Close()
	for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
		for _, workers := range []int{1, 2} {
			var log visitLog
			opt := Options{Workers: workers, Direction: dir, RecordLevels: true, CollectIterStats: true, OnVisit: log.hook(), Engine: eng}
			res := MSPBFS(g, sources, opt)
			name := fmt.Sprintf("dir=%d workers=%d", dir, workers)
			checkAgainstOracle(t, name, g, nil, sources, res, &log)
			its := res.Stats.Iterations
			if len(its) != 1 {
				t.Fatalf("%s: %d levels, want 1", name, len(its))
			}
			// A forced bottom-up level finds no frontier neighbor for any
			// vertex, so it scans every arc; top-down scans none.
			scanned := int64(0)
			if dir == BottomUpOnly {
				scanned = int64(len(g.Adjacency))
			}
			if it := its[0]; it.UpdatedStates != 0 || it.ScannedEdges != scanned || it.BottomUp != (dir == BottomUpOnly) {
				t.Errorf("%s: level %+v, want nothing updated, %d scanned, bottom-up only when forced", name, it, scanned)
			}

			r := SMSPBFS(g, n-1, BitState, opt)
			if len(r.Stats.Iterations) != 1 || r.VisitedVertices != 1 || r.Levels[n-1] != 0 {
				t.Errorf("%s: SMS-PBFS from %d: %d levels, %d visited, level %d; want 1, 1, 0",
					name, n-1, len(r.Stats.Iterations), r.VisitedVertices, r.Levels[n-1])
			}
		}
	}
}

// TestIsolatedMidRangeKeepsFullState: isolated vertices in the middle of
// the id range leave the active prefix at n, so the shell covers every
// vertex, exactly as without the prefix, and the runs match the oracle.
func TestIsolatedMidRangeKeepsFullState(t *testing.T) {
	const n = 3000
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		if v < 1000 || v >= 2000 {
			b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
		}
	}
	g := b.Build() // 1001..1999 isolated
	if a := g.ActivePrefix(); a != n {
		t.Fatalf("active prefix %d, want %d", a, n)
	}
	eng := NewEngine()
	defer eng.Close()
	sources := []int{0, 1500, 2999, 1001, 1000}
	var log visitLog
	res := MSPBFS(g, sources, Options{Engine: eng, RecordLevels: true, OnVisit: log.hook()})
	checkAgainstOracle(t, "mid-range", g, nil, sources, res, &log)
	eng.ReleaseLevels(res.Levels...)
	if got, want := eng.Stats().FreeBytes-int64(len(res.Levels))*n*4, shellBytes(n, 1); got != want {
		t.Errorf("one-worker shell holds %d B, want %d B", got, want)
	}
}

// shellBytes is a one-worker MS-PBFS shell's size at the given active
// prefix and row width: three state arrays of active rows, one scratch row
// and one live row padded to a cache line. One worker has no inboxes.
func shellBytes(active, words int) int64 {
	return 3*int64(active)*int64(words)*8 + int64(words+words+8)*8
}

// TestShellStateIsActivePrefix: on the striped scale-14 graph a shell's
// state is exactly 3 × a × words × 8 B, as the arena's parked bytes (the
// figure Fig3 reads) report it.
func TestShellStateIsActivePrefix(t *testing.T) {
	g := goldenStriped(14, 20170321)
	a := g.ActivePrefix()
	if a != 12951 {
		t.Fatalf("active prefix %d, want 12951", a)
	}
	for _, words := range []int{1, 2} {
		eng := NewEngine()
		MSPBFS(g, RandomSources(g, 64*words, 5), Options{Engine: eng, BatchWords: words})
		if got, want := eng.Stats().FreeBytes, shellBytes(a, words); got != want {
			t.Errorf("words=%d: shell holds %d B, want %d B (state %d B)", words, got, want, 3*a*words*8)
		}
		eng.Close()
	}
}

// TestStripesClippedToActivePrefix: a shell's stripes are the n-vertex
// layout's, clipped to the active prefix. Every task lies below the
// prefix and inside its queue's unclipped stripe, the tasks tile [0, a)
// exactly, and the apply layout holds one task per non-empty stripe.
func TestStripesClippedToActivePrefix(t *testing.T) {
	g := goldenStriped(12, 1)
	n, a := g.NumVertices(), g.ActivePrefix()
	eng := NewEngine() // a fresh arena: a parked shell of a larger prefix would serve too
	defer eng.Close()
	for _, workers := range []int{1, 2, 3, 7} {
		e := NewMSPBFSEngine(g, Options{Workers: workers, Engine: eng})
		bounds := numa.AlignedRanges(n, workers, splitStride)
		if e.stripeLen != max(bounds[1], 1) {
			t.Errorf("workers=%d: stripe length %d, want the n-vertex layout's %d", workers, e.stripeLen, bounds[1])
		}
		covered := 0
		for w := range workers {
			for _, r := range e.tq.WorkerTasks(w) {
				if r.Lo < bounds[w] || r.Hi > bounds[w+1] || r.Hi > a {
					t.Errorf("workers=%d: task [%d,%d) in queue %d outside [%d,%d) ∩ [0,%d)", workers, r.Lo, r.Hi, w, bounds[w], bounds[w+1], a)
				}
				covered += r.Hi - r.Lo
			}
		}
		if covered != a {
			t.Errorf("workers=%d: tasks cover %d vertices, want %d", workers, covered, a)
		}
		if stripes := (a + e.stripeLen - 1) / e.stripeLen; workers > 1 && e.applyTq.NumTasks() != stripes {
			t.Errorf("workers=%d: %d apply tasks, want %d", workers, e.applyTq.NumTasks(), stripes)
		}
		e.Close()
	}
}

// TestShellsParkPerShape: graphs of one shape whose active prefixes differ,
// like a dynamic graph's generations, share the arena's shells. A run
// takes a parked shell whose prefix covers its own, so a smaller prefix
// needs no new shell; a larger one does, and parking it drops the parked
// shells it covers.
func TestShellsParkPerShape(t *testing.T) {
	const n = 4096
	eng := NewEngine()
	defer eng.Close()
	graphs := map[int]*graph.Graph{}
	run := func(a int) (missed bool) {
		if graphs[a] == nil {
			b := graph.NewBuilder(n)
			for v := 0; v+1 < a; v++ {
				b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
			}
			graphs[a] = b.Build()
		}
		misses := eng.Stats().Misses
		res := MSPBFS(graphs[a], []int{0, a - 1, n - 1}, Options{Engine: eng, RecordLevels: true})
		for i, s := range []int{0, a - 1, n - 1} {
			levelsEqual(t, fmt.Sprintf("prefix %d source %d", a, s), res.Levels[i], ReferenceLevels(graphs[a], s))
		}
		eng.ReleaseLevels(res.Levels...)
		return eng.Stats().Misses > misses
	}
	parked := func(want ...int) {
		t.Helper()
		bytes := int64(3 * n * 4) // the three level rows every run releases and the next takes
		for _, a := range want {
			bytes += shellBytes(a, 1)
		}
		if st := eng.Stats(); st.FreeShells != len(want) || st.FreeBytes != bytes {
			t.Errorf("%d shells and rows parked in %d B, want the shells of prefixes %v (%d B)", st.FreeShells, st.FreeBytes, want, bytes)
		}
	}
	for _, a := range []int{1000, 1500, 2000, 2500, 3000} {
		if !run(a) {
			t.Errorf("prefix %d: a larger prefix than every parked shell's did not miss", a)
		}
	}
	parked(3000)
	for _, a := range []int{2500, 2200, 1000, 3000} {
		if run(a) {
			t.Errorf("prefix %d: a run a parked shell covers missed", a)
		}
	}
	parked(3000)
	run(3500)
	parked(3500)
}
