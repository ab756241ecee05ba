package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// csrHash is the first 8 bytes of SHA-256 over the little-endian Offsets,
// each widened to 64 bits as the offsets were when the hashes were
// recorded, then Adjacency arrays: two graphs hash equal iff their CSRs
// are identical (up to collisions).
func csrHash(g *graph.Graph) string {
	h := sha256.New()
	buf := make([]byte, 0, 8*len(g.Offsets)+4*len(g.Adjacency))
	for _, o := range g.Offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, a := range g.Adjacency {
		buf = binary.LittleEndian.AppendUint32(buf, a)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenKronecker pins the exact graphs the generator and the striped
// relabel produce. Every benchmark workload and every committed
// BENCH_*.json row runs on these graphs, so a construction speed-up must
// leave them byte-identical. The raw hashes were recorded at commit
// beb82f6 (sort-based Build/BuildParallel/Relabel), before the sort-free
// rewrite; striped uses the benchmark's layout (2 workers) and was
// re-recorded when the labeling began to deal over the kernels' stripes.
var goldenKronecker = map[string][2]string{
	// "scale/seed": {raw, striped}
	"8/1":         {"3199f9645550ec89", "5f680c6e6c1bdf7e"},
	"8/7":         {"05a41efcd67098b2", "826e4a3041baec20"},
	"8/20170321":  {"d91c9cf71d2f55ec", "4bb64757513090f9"},
	"12/1":        {"be78d2e31e97a8c2", "03837201d55cec23"},
	"12/7":        {"82d605e0a41746de", "a794988e4191c384"},
	"12/20170321": {"79d3953ecebb81ff", "635aa4e4b4dc46e1"},
	"14/1":        {"1340c8cca1dc1840", "4717019c7d548cd2"},
	"14/7":        {"546dccaa39de5fb0", "e7cff0f5c7024974"},
	"14/20170321": {"d878b1fab6ea25dc", "99292aa3e9121cb4"},
}

// goldenBenchmarkGraphs pins, the same way, the graphs the benchmark
// itself runs on: scale 18 (the offline workloads) and 16 (the serving
// ones), seed 20170321. The raw hashes were recorded at commit 22df3c1,
// with the float64 sampler that branched on every draw; the striped ones
// with the stripe deal.
var goldenBenchmarkGraphs = map[int][2]string{
	16: {"0aafeddb6334aadb", "10c93eec1cf93b8e"},
	18: {"cf241a0f7996af77", "51af8820dbdb8f3e"},
}

// striped relabels g in the benchmark's layout.
func striped(g *graph.Graph) *graph.Graph {
	s, _ := label.Apply(g, label.Striped, label.Params{Workers: 2})
	return s
}

func TestKroneckerGolden(t *testing.T) {
	for _, scale := range []int{8, 12, 14} {
		for _, seed := range []uint64{1, 7, 20170321} {
			key := fmt.Sprintf("%d/%d", scale, seed)
			g := Kronecker(Graph500Params(scale, seed))
			got := [2]string{csrHash(g), csrHash(striped(g))}
			if want := goldenKronecker[key]; got != want {
				t.Errorf("%q: {%q, %q}, // got; want {%q, %q}", key, got[0], got[1], want[0], want[1])
			}
		}
	}
}

func TestKroneckerGoldenBenchmarkGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates scale-16 and scale-18 graphs")
	}
	for scale, want := range goldenBenchmarkGraphs {
		g := Kronecker(Graph500Params(scale, 20170321))
		if got := [2]string{csrHash(g), csrHash(striped(g))}; got != want {
			t.Errorf("%d/20170321: {%q, %q}, // got; want {%q, %q}", scale, got[0], got[1], want[0], want[1])
		}
	}
}

// totalAlloc returns the bytes f allocates, live or not: the transients of
// graph construction are what set a process's peak RSS.
func totalAlloc(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestConstructionMemoryBudget bounds what generation and the striped
// relabel allocate, each as a multiple of the graph it returns, with the
// collector running. The sort-based pipeline this replaced measured 8.8x
// (10.6x through BuildParallel) and 1.48x, the scatter-and-transpose build
// 2.51x (the endpoint buffer and a second arc array). Built inside its
// endpoint buffer, generation allocates that buffer — about 1.15x the
// deduplicated arcs — the offsets and the scrambling permutation, and the
// relabel one exact-size CSR beside its permutation and inverse.
func TestConstructionMemoryBudget(t *testing.T) {
	var g, s *graph.Graph
	generate := totalAlloc(func() { g = Kronecker(Graph500Params(14, 20170321)) })
	relabel := totalAlloc(func() { s = striped(g) })
	for _, c := range []struct {
		name   string
		got    int64
		result *graph.Graph
		budget float64
	}{
		{"generate", generate, g, 1.4},
		{"striped relabel", relabel, s, 1.15},
		{"generate + striped relabel", generate + relabel, s, 2.5},
	} {
		size := c.result.MemoryBytes()
		ratio := float64(c.got) / float64(size)
		if ratio > c.budget {
			t.Errorf("%s allocated %d bytes for a %d-byte graph (%.2fx, budget %.2fx)", c.name, c.got, size, ratio, c.budget)
		}
		t.Logf("%s: %.2fx of the graph (budget %.2fx)", c.name, ratio, c.budget)
	}
	if got := [2]string{csrHash(g), csrHash(s)}; got != goldenKronecker["14/20170321"] {
		t.Errorf("graphs hash to %q, want %q", got, goldenKronecker["14/20170321"])
	}
}

// TestAnalysisMemoryBudget holds the analyses that run beside construction
// to their results. The component labeling allocates comp (4 bytes a
// vertex) and sizes (8 bytes a component). The edge counter allocates the
// same two arrays over the active prefix a only, its per-component slots
// holding edges instead of vertices: 4a bytes and 8 a component that
// starts below a, which on a striped graph leaves out the trailing block
// of isolated vertices. comp is a large object, which the allocator
// rounds up to whole 8 KiB pages, so its term is 4a rounded up to a page.
// A striped relabel allocates the permutation, the
// new CSR, one inverse permutation and, beside those, only the degree
// histogram and a block's worth of slack. A search-based labeling would
// add its stack and an appended sizes slice (the counter a second
// per-component array), a relabel an order and a cursor array.
func TestAnalysisMemoryBudget(t *testing.T) {
	g := Kronecker(Graph500Params(14, 20170321))
	n := int64(g.NumVertices())
	var sizes []int64
	labels := totalAlloc(func() { _, sizes = graph.Components(g) })
	results := float64(4*n + 8*int64(len(sizes)))
	if float64(labels) > 1.05*results {
		t.Errorf("Components allocated %d bytes for %d vertices in %d components (%.2fx its results, budget 1.05x)",
			labels, n, len(sizes), float64(labels)/results)
	}
	for name, h := range map[string]*graph.Graph{"raw": g, "striped": striped(g)} {
		a := h.ActivePrefix()
		comp, _ := graph.Components(h)
		below := int64(0) // ids follow smallest vertices
		for _, id := range comp[:a] {
			below = max(below, int64(id)+1)
		}
		counter := totalAlloc(func() { metrics.NewEdgeCounter(h) })
		const page = 8192
		kept := float64((4*int64(a)+page-1)/page*page + 8*below)
		if float64(counter) > 1.05*kept {
			t.Errorf("NewEdgeCounter (%s) allocated %d bytes for a prefix of %d vertices in %d components (%.2fx, budget 1.05x)",
				name, counter, a, below, float64(counter)/kept)
		}
		t.Logf("NewEdgeCounter (%s): prefix %d of %d, %d components below it, %.3fx of its arrays", name, a, n, below, float64(counter)/kept)
	}

	relabel := totalAlloc(func() { striped(g) })
	arrays := 4*n + 4*(n+1) + 4*int64(len(g.Adjacency)) + 4*n // newID, offsets, adjacency, inv
	// The degree histogram and the allocator's rounding: up to a page on
	// each of the five arrays.
	slack := 8*int64(g.MaxDegree()+1) + 5*8192
	if relabel > arrays+slack {
		t.Errorf("striped relabel allocated %d bytes: newID, the CSR and inv are %d, the histogram and rounding %d",
			relabel, arrays, slack)
	}
	t.Logf("Components %.3fx of its results; striped relabel %d bytes over its arrays",
		float64(labels)/results, relabel-arrays)
}

// TestEdgeCounterMatchesFullCount: the counter, which keeps state for the
// active prefix only, answers for every vertex what counting the edges of
// each vertex's component over the whole graph does — on the golden
// graphs, raw and striped, and on a graph whose prefix holds isolated
// vertices and ends on one arc's far end.
func TestEdgeCounterMatchesFullCount(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"isolated inside the prefix": graph.FromEdges(12, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 4}, {U: 6, V: 8}, {U: 0, V: 9}}),
	}
	for key := range goldenKronecker {
		var scale int
		var seed uint64
		if _, err := fmt.Sscanf(key, "%d/%d", &scale, &seed); err != nil {
			t.Fatal(err)
		}
		g := Kronecker(Graph500Params(scale, seed))
		graphs[key+" raw"], graphs[key+" striped"] = g, striped(g)
	}
	for name, g := range graphs {
		comp, sizes := graph.Components(g)
		edges := make([]int64, len(sizes))
		for v := range comp {
			edges[comp[v]] += int64(g.Degree(v))
		}
		c := metrics.NewEdgeCounter(g)
		for v := range comp {
			if got, want := c.EdgesFor(v), edges[comp[v]]/2; got != want {
				t.Fatalf("%s: EdgesFor(%d) = %d, want %d (prefix %d of %d)", name, v, got, want, g.ActivePrefix(), g.NumVertices())
			}
		}
	}
}

// TestStripedScale18Pinned pins the benchmark's graph — scale 18, seed
// 20170321, striped — where the offline workloads' memory is measured:
// its CSR size with 32-bit offsets, its active prefix and components, and
// an edge counter that allocates its prefix arrays and no more.
func TestStripedScale18Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a scale-18 graph")
	}
	g := striped(Kronecker(Graph500Params(18, 20170321)))
	_, sizes := graph.Components(g)
	_, below := graph.PrefixComponents(g)
	got := [4]int64{g.MemoryBytes(), int64(g.ActivePrefix()), int64(len(sizes)), int64(len(below))}
	if want := [4]int64{31_498_988, 173_972, 88_220, 48}; got != want {
		t.Errorf("memory bytes, active prefix, components, components below the prefix = %v, want %v", got, want)
	}
	counter := totalAlloc(func() { metrics.NewEdgeCounter(g) })
	kept := float64(4*got[1] + 8*got[3])
	if float64(counter) > 1.05*kept {
		t.Errorf("NewEdgeCounter allocated %d bytes, %.3fx of its %.0f-byte arrays (budget 1.05x)", counter, float64(counter)/kept, kept)
	}
}

// TestConcurrentPipelinesGolden generates and relabels on several
// goroutines at once: each builds inside a buffer of its own, and under
// -race any two that ended up on the same storage would show, as would a
// wrong graph in the hashes.
func TestConcurrentPipelinesGolden(t *testing.T) {
	seeds := []uint64{1, 7, 20170321, 1, 7, 20170321}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scale := []int{12, 8}[i%2]
			g := Kronecker(Graph500Params(scale, seed))
			key := fmt.Sprintf("%d/%d", scale, seed)
			if got := [2]string{csrHash(g), csrHash(striped(g))}; got != goldenKronecker[key] {
				t.Errorf("%q built beside %d others: %q, want %q", key, len(seeds)-1, got, goldenKronecker[key])
			}
		}()
	}
	wg.Wait()
}
