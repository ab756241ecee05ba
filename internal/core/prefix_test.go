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
// the active prefix, and these, re-recorded when the generator's draw
// changed, are the prefix sweep's.
var pinnedLevelTraces = map[string][]string{
	"ms/1": {
		"tbbbbtb 2996,425948,120283,30074,378,374,4 799936",
	},
	"sms/1": {
		"ttbbtb 1,1780,11550,742,899,4 12499",
		"ttbbtb 33,17983,6630,110,110,4 12499",
		"ttbbbt 1,771,13930,1468,16,12 12499",
		"tbbbtb 106,31336,4531,64,60,4 12499",
		"ttbbtb 30,11489,8286,200,209,4 12499",
		"ttbbtb 9,4038,10406,486,554,4 12499",
		"ttbbtb 3,2070,11332,679,805,4 12499",
		"ttbbtb 6,5922,8360,234,243,4 12499",
		"ttbbtb 3,1945,11444,695,826,4 12499",
		"tttbbtb 1,25,11618,7443,158,159,4 12499",
		"tttbbtb 1,33,17966,6506,115,116,4 12499",
		"ttbbbt 5,1199,13601,1340,15,11 12499",
		"tbbbt 303,17999,2598,23,19 12499",
		"ttbbtb 24,8599,8803,276,291,4 12499",
		"ttbbtb 3,1908,11440,718,863,4 12499",
		"ttbbtb 9,5076,9981,408,453,4 12499",
	},
	"ms/7": {
		"tbbbbt 2680,426494,210388,33003,713,711 799744",
	},
	"sms/7": {
		"ttbbt 4,6534,8234,197,206 12496",
		"ttbbt 23,6263,9916,368,420 12496",
		"ttbbbt 2,810,14121,1518,5,1 12496",
		"ttbbtb 8,3804,10420,451,504,4 12496",
		"ttbbbt 3,609,16028,2008,12,8 12496",
		"ttbbtb 13,2585,11600,724,885,4 12496",
		"ttbbbt 2,331,17895,2551,15,11 12496",
		"ttbbtb 2,2537,11020,565,668,4 12496",
		"ttbbt 11,5640,9748,347,390 12496",
		"ttbbt 30,21264,6364,89,86 12496",
		"ttbbt 7,4544,10076,398,432 12496",
		"tbbbt 106,32964,4823,44,40 12496",
		"ttbbbt 3,1076,13514,1293,9,5 12496",
		"ttbbbt 1,89,28516,4480,43,41 12496",
		"tbbbt 284,19509,2733,17,13 12496",
		"ttbbbt 1,293,19478,2739,22,18 12496",
	},
	"ms/20170321": {
		"tbbbbtb 905,425696,67934,21203,119,117,2 800704",
	},
	"sms/20170321": {
		"ttbbtb 37,15234,7608,157,164,2 12511",
		"ttbbtb 28,13182,7953,176,182,2 12511",
		"ttbbbtb 4,258,22775,3226,29,27,2 12511",
		"tbbbtb 110,25957,4237,39,37,2 12511",
		"ttbbbt 2,411,17673,2310,18,16 12511",
		"tbbbtb 109,35835,4886,54,53,2 12511",
		"ttbbbt 7,1347,13041,1070,10,8 12511",
		"ttbbbt 1,260,20834,3061,20,18 12511",
		"ttbbtb 7,3190,10808,534,636,2 12511",
		"ttbbtb 3,2841,10906,531,641,2 12511",
		"ttbbtb 12,3457,11171,591,707,2 12511",
		"ttbbtb 5,3076,10770,537,642,2 12511",
		"ttbbtb 6,1895,12157,815,1082,2 12511",
		"ttbbtb 13,7012,9220,286,315,2 12511",
		"ttbbtb 3,1891,11646,692,865,2 12511",
		"ttbbtb 36,14960,7724,149,161,2 12511",
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
	var pairs []graph.VertexID
	for v := 0; v+1 < n; v++ {
		if v < 1000 || v >= 2000 {
			pairs = append(pairs, graph.VertexID(v), graph.VertexID(v+1))
		}
	}
	g := graph.FromPairs(n, pairs) // 1001..1999 isolated
	if a := g.ActivePrefix(); a != n {
		t.Fatalf("active prefix %d, want %d", a, n)
	}
	eng := NewEngine()
	defer eng.Close()
	sources := []int{0, 1500, 2999, 1001, 1000}
	MSPBFS(g, sources, Options{Engine: eng, RecordLevels: true})
	if got, want := eng.Stats().FreeBytes, shellBytes(n, 1); got != want {
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
	if a != 12513 {
		t.Fatalf("active prefix %d, want 12513", a)
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
			var pairs []graph.VertexID
			for v := 0; v+1 < a; v++ {
				pairs = append(pairs, graph.VertexID(v), graph.VertexID(v+1))
			}
			graphs[a] = graph.FromPairs(n, pairs)
		}
		misses := eng.Stats().Misses
		res := MSPBFS(graphs[a], []int{0, a - 1, n - 1}, Options{Engine: eng, RecordLevels: true})
		for i, s := range []int{0, a - 1, n - 1} {
			CheckLevels(t, fmt.Sprintf("prefix %d source %d", a, s), res.Levels[i], ReferenceLevels(graphs[a], s))
		}
		return eng.Stats().Misses > misses
	}
	parked := func(want ...int) {
		t.Helper()
		var bytes int64
		for _, a := range want {
			bytes += shellBytes(a, 1)
		}
		if st := eng.Stats(); st.FreeShells != len(want) || st.FreeBytes != bytes {
			t.Errorf("%d shells parked in %d B, want the shells of prefixes %v (%d B)", st.FreeShells, st.FreeBytes, want, bytes)
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
