package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/sched"
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

// TestIsolatedMidRangeKeepsFullState: isolated vertices in the middle of
// the id range leave the active prefix at n, so the shell covers every
// vertex, exactly as without the prefix. (The grid's midgap shape holds
// such runs to the oracle.)
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
	res := MSPBFS(g, sources, Options{Engine: eng, RecordLevels: true})
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
		layout := sched.NewStripes(n, workers, splitStride)
		covered, stripes := 0, 0
		for w := range workers {
			lo, hi := layout.Range(w)
			if lo < a {
				stripes++
			}
			for _, r := range e.tq.WorkerTasks(w) {
				if r.Lo < lo || r.Hi > hi || r.Hi > a {
					t.Errorf("workers=%d: task [%d,%d) in queue %d outside [%d,%d) ∩ [0,%d)", workers, r.Lo, r.Hi, w, lo, hi, a)
				}
				covered += r.Hi - r.Lo
			}
		}
		if covered != a {
			t.Errorf("workers=%d: tasks cover %d vertices, want %d", workers, covered, a)
		}
		if workers > 1 && e.applyTq.NumTasks() != stripes {
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
			CheckLevels(t, fmt.Sprintf("prefix %d source %d", a, s), res.Levels[i], ReferenceLevels(graphs[a], s))
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
