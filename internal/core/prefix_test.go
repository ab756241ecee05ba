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
// striped over 2 workers, so its isolated vertices form one trailing block
// of ids.
func goldenStriped(scale int, seed uint64) *graph.Graph {
	g, _ := label.Apply(gen.Kronecker(gen.Graph500Params(scale, seed)), label.Striped,
		label.Params{Workers: 2})
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
		"tbbbbtb 3019,425108,228968,35757,1066,1063,6 791471",
	},
	"sms/1": {
		"ttbbbt 1,285,18541,2742,23,17 12563",
		"ttbbtb 33,15158,7698,149,145,6 12563",
		"ttbbtb 1,1805,11711,725,890,6 12563",
		"tbbbt 106,32054,4563,42,36 12563",
		"ttbbtb 29,16045,6942,139,136,6 12563",
		"ttbbtb 9,2154,12091,822,1037,6 12563",
		"ttbbtb 3,3777,9211,305,320,6 12563",
		"ttbbtb 6,2081,12058,812,1022,6 12563",
		"ttbbtb 3,5097,8860,271,279,6 12563",
		"ttbbbt 1,95,31674,4760,57,51 12563",
		"ttbbtb 1,1798,11586,694,827,6 12563",
		"ttbbbt 5,1211,13664,1293,13,7 12563",
		"tbbbt 302,19669,2785,26,20 12563",
		"ttbbtb 23,15900,6650,114,110,6 12563",
		"ttbbbt 3,427,18683,2577,24,18 12563",
		"ttbbtb 9,4894,10055,397,433,6 12563",
	},
	"ms/7": {
		"tbbbbtb 2681,426344,169922,31738,467,465,2 803264",
	},
	"sms/7": {
		"ttbbtb 4,3359,10670,487,579,2 12551",
		"ttbbtb 24,10616,7645,171,182,2 12551",
		"ttbbbt 2,1047,13340,1211,8,6 12551",
		"ttbbtb 8,9470,7722,176,186,2 12551",
		"ttbbtb 3,2784,11028,556,667,2 12551",
		"ttbbtb 13,7088,8360,220,239,2 12551",
		"ttbbbt 2,587,15700,1920,12,10 12551",
		"ttbbbt 2,1052,13481,1265,8,6 12551",
		"ttbbtb 11,3490,10704,491,567,2 12551",
		"ttbbtb 30,12739,7840,188,198,2 12551",
		"ttbbtb 7,7187,8260,225,242,2 12551",
		"tbbbt 105,32396,4689,51,52 12551",
		"ttbbbt 3,1140,13227,1224,7,5 12551",
		"ttbbtb 1,1780,11635,712,881,2 12551",
		"tbbbt 286,19044,2820,25,23 12551",
		"ttbbbt 1,278,19074,2809,17,15 12551",
	},
	"ms/20170321": {
		"tbbbbt 872,423484,55387,16011,97,93 805504",
	},
	"sms/20170321": {
		"ttbbt 37,14529,7708,174,179 12586",
		"ttbbtb 29,13294,7412,166,168,4 12586",
		"ttbbbt 4,1098,13492,1249,12,8 12586",
		"tbbbt 109,28361,4504,57,54 12586",
		"ttbbbt 2,1584,12503,1036,8,4 12586",
		"tbbbt 108,35452,5202,76,75 12586",
		"ttbbtb 7,4193,10322,465,498,4 12586",
		"ttbbbt 1,288,19465,2978,27,24 12586",
		"ttbbtb 7,4202,10345,485,548,4 12586",
		"ttbbtb 3,1894,11545,754,904,4 12586",
		"ttbbtb 12,5088,10101,436,487,4 12586",
		"ttbbtb 5,2224,11428,762,900,4 12586",
		"ttbbtb 6,2195,12095,874,1070,4 12586",
		"ttbbtb 13,6596,9273,314,337,4 12586",
		"ttbbbt 2,840,13879,1473,12,8 12586",
		"ttbbt 36,18880,6831,134,133 12586",
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
	if a != 12590 {
		t.Fatalf("active prefix %d, want 12590", a)
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
		layout := sched.NewStripes(n, workers, sched.StripeStride)
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

// TestStripedDealsOverShellStripes: the striped labeling and the kernels
// share one vertex layout. On the striped graph the active prefix is the
// count of non-isolated vertices, a shell's stripes are the n-vertex
// layout clipped there, and each non-empty stripe opens with the hub the
// labeling dealt it: the w-th vertex by degree sits at stripe w's border.
func TestStripedDealsOverShellStripes(t *testing.T) {
	g0 := gen.Kronecker(gen.Graph500Params(14, 20170321))
	n, active := g0.NumVertices(), 0
	byDegree := make([]int, n)
	for v := range n {
		byDegree[v] = v
		if g0.Degree(v) > 0 {
			active++
		}
	}
	slices.SortStableFunc(byDegree, func(u, v int) int { return g0.Degree(v) - g0.Degree(u) })
	eng := NewEngine()
	defer eng.Close()
	for _, workers := range []int{1, 2, 3, 4, 8} {
		g, perm := label.Apply(g0, label.Striped, label.Params{Workers: workers})
		if a := g.ActivePrefix(); a != active {
			t.Errorf("P=%d: active prefix %d, want the %d non-isolated vertices", workers, a, active)
		}
		e := NewMSPBFSEngine(g, Options{Workers: workers, Engine: eng})
		if want := sched.NewStripes(n, workers, sched.StripeStride).Clip(active); e.stripes != want {
			t.Errorf("P=%d: shell stripes %+v, the labeling dealt over %+v", workers, e.stripes, want)
		}
		for w := range workers {
			if lo, hi := e.stripes.Range(w); lo < hi && int(perm[byDegree[w]]) != lo {
				t.Errorf("P=%d: the vertex of degree rank %d got id %d, want stripe %d's border %d", workers, w, perm[byDegree[w]], w, lo)
			}
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
