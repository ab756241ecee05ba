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
// it decides or scans; the n-wide sweep's counts were pinned here before
// the active prefix, and these, re-recorded when the generator's stream
// changed, are the prefix sweep's.
var pinnedLevelTraces = map[string][]string{
	"ms/1": {
		"tbbbbtb 2983,426002,202946,31974,469,461,8 803008",
	},
	"sms/1": {
		"ttbbtb 1,1758,11625,737,917,8 12547",
		"ttbbt 33,16733,6777,117,113 12547",
		"ttbbbt 1,272,21341,2978,34,27 12547",
		"tbbbt 106,30095,4652,58,52 12547",
		"ttbbt 30,11738,8286,203,207 12547",
		"ttbbtb 9,2165,12116,809,1034,8 12547",
		"ttbbbt 3,1377,12925,1012,10,2 12547",
		"ttbbtb 6,3186,11128,559,643,8 12547",
		"ttbbbt 3,479,17392,2186,23,16 12547",
		"ttbbbt 1,278,19776,2845,31,23 12547",
		"ttbbbt 1,773,14506,1559,13,5 12547",
		"ttbbtb 5,2181,11941,753,938,8 12547",
		"tbbbt 303,19463,2793,28,20 12547",
		"ttbbt 23,10633,8443,214,223 12547",
		"ttbbtb 3,3796,10157,401,440,8 12547",
		"ttbbtb 9,5350,9556,339,366,8 12547",
	},
	"ms/7": {
		"tbbbbt 2678,423812,53189,14619,92,86 805440",
	},
	"sms/7": {
		"ttbbtb 4,4499,9880,409,435,6 12585",
		"ttbbt 24,10316,8608,251,258 12585",
		"ttbbbt 2,147,26512,4107,48,42 12585",
		"ttbbtb 7,2518,11808,825,1004,6 12585",
		"ttbbbt 2,1051,13688,1341,11,5 12585",
		"ttbbt 13,4928,10153,473,520 12585",
		"ttbbbt 2,575,15513,2033,14,8 12585",
		"ttbbbt 2,387,16846,2491,17,11 12585",
		"ttbbtb 11,4013,10447,515,582,6 12585",
		"ttbbt 30,12437,7947,216,215 12585",
		"ttbbt 7,3806,10158,473,534 12585",
		"tbbbt 106,28230,4521,48,42 12585",
		"ttbbtb 3,1902,11701,787,962,6 12585",
		"ttbbbt 1,286,19205,2850,23,17 12585",
		"tbbbt 285,19566,2911,27,21 12585",
		"ttbbbt 1,800,14110,1509,10,4 12585",
	},
	"ms/20170321": {
		"tbbbbtb 907,425682,152181,32516,560,548,12 802368",
	},
	"sms/20170321": {
		"ttbbtb 37,20979,6236,105,93,12 12537",
		"ttbbtb 28,10736,8423,226,235,12 12537",
		"ttbbtb 4,2610,11118,581,674,12 12537",
		"tbbbtb 110,30557,4424,59,46,12 12537",
		"ttbbbt 2,579,16502,2092,25,13 12537",
		"tbbbt 108,30601,4690,62,50 12537",
		"ttbbtb 7,1898,12208,893,1113,12 12537",
		"ttbbbtb 1,96,38937,5145,70,58,12 12537",
		"ttbbbt 7,1604,12722,1008,17,5 12537",
		"ttbbbt 3,1088,13666,1317,19,7 12537",
		"ttbbtb 12,2082,12245,923,1195,12 12537",
		"ttbbtb 5,2372,11669,731,867,12 12537",
		"ttbbtb 6,5843,8638,237,238,12 12537",
		"ttbbtb 13,8268,8790,266,273,12 12537",
		"ttbbbt 3,922,14251,1480,20,8 12537",
		"ttbbtb 36,18480,6538,116,105,12 12537",
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
	if a != 12549 {
		t.Fatalf("active prefix %d, want 12549", a)
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
