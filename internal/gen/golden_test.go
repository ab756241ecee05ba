package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
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
// relabel produce. Every benchmark workload runs on these graphs. A change
// to the build (graph.FromPairs, the relabel) must leave every hash as it
// is; a change to the draw changes every graph, so it re-records every pin
// that follows the graph, old → new, with evidence that the new draw has
// the old one's distribution. The hashes were recorded when the sampler
// began to draw five levels at a time from one alias table; striped uses
// the benchmark's layout (2 workers).
var goldenKronecker = map[string][2]string{
	// "scale/seed": {raw, striped}
	"8/1":         {"cb31ff7c584f7ae2", "2e5f9ce260c877cb"},
	"8/7":         {"66fd74d5c1180d83", "8a02639020287bc8"},
	"8/20170321":  {"c885b305491f21d9", "ec4232967561bdea"},
	"12/1":        {"646bdbb3c23b8966", "c1f55a06ebca0c05"},
	"12/7":        {"362143eeb2e03b45", "1f920c6383a16425"},
	"12/20170321": {"f61bf6b1f0183e7a", "238bede7517e8044"},
	"14/1":        {"89c3ead41e5fbc01", "696b56d8853f44ac"},
	"14/7":        {"2b5d83869e7b60ee", "691630d524de914f"},
	"14/20170321": {"f2d85c5af4c69d2c", "b0d4ba2dbee1c115"},
}

// goldenBenchmarkGraphs pins, the same way, the graphs the benchmark
// itself runs on: scale 18 (the offline workloads) and 16 (the serving
// ones), seed 20170321, recorded with the same sampler.
var goldenBenchmarkGraphs = map[int][2]string{
	16: {"a350080aa4e560ed", "eb2cbbdce8d90380"},
	18: {"9700515b7673ce57", "5fb28e99e92e2df8"},
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

// goldenOthers pins the other producers' graphs the same way: each fills
// the endpoint buffer that graph.FromPairs builds in, so a change to how it
// fills the buffer must leave its hash as it is. edgeListText is the
// LoadEdgeList input.
var goldenOthers = map[string]string{
	"ldbc":          "001344a25eb34bf7",
	"uniform":       "895f5499e5835e0b",
	"powerlaw":      "33bebbd7009d2032",
	"web":           "978fcec5b8307c64",
	"collaboration": "433f572c37d8ff06",
	"edgelist":      "bf602291f9174dc3",
}

// edgeListText is an edge list with sparse ids (so the load interns them
// in order of first appearance), comments, self-loops, duplicates in both
// orientations and an ignored weight column.
func edgeListText() string {
	r := newRNG(20170321)
	var b strings.Builder
	b.WriteString("# sparse ids\n% and a second comment style\n")
	for i := 0; i < 6000; i++ {
		u, v := 7919*int64(r.intn(1500)), 7919*int64(r.intn(1500))
		switch r.intn(8) {
		case 0:
			v = u // a self-loop
		case 1:
			fmt.Fprintf(&b, "%d %d\n", v, u) // the edge reversed, then again
		}
		fmt.Fprintf(&b, "\t%d\t%d %d\n", u, v, r.intn(100))
	}
	return b.String()
}

func loadGolden(t *testing.T) *graph.Graph {
	g, ids, err := graph.LoadEdgeList(strings.NewReader(edgeListText()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != g.NumVertices() {
		t.Fatalf("%d original ids for %d vertices", len(ids), g.NumVertices())
	}
	return g
}

func TestOtherProducersGolden(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ldbc":          LDBC(3000, 5, 1),
		"uniform":       Uniform(3000, 8, 1),
		"powerlaw":      PowerLaw(3000, 1),
		"web":           Web(3000, 12, 1),
		"collaboration": Collaboration(3000, 20, 1),
		"edgelist":      loadGolden(t),
	}
	for name, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got, want := csrHash(g), goldenOthers[name]; got != want {
			t.Errorf("%q: %q, // got; want %q", name, got, want)
		}
	}
}

// goldenStandIns pins the stand-in graphs at exactly the settings their
// callers use, at small N: bfsbench's Table 1 (seed 20170321 plus the
// row's offset) and Figures 6/7, and graphgen's defaults (seed 42, edge
// factor 16). A generator's fixed shape (LDBC's communities and closure
// share, the power law's exponent and degree bounds, the web graph's
// locality window, the cast size) must leave every hash as it is.
var goldenStandIns = map[string]string{
	"ldbc table1":          "61cde1381de8177e",
	"ldbc fig6/7":          "560f3af9f8f5809c",
	"ldbc graphgen":        "7804c728db7cdfdb",
	"collaboration table1": "e8090a79cb52a945",
	"collaboration gen":    "50e79be4ebfef250",
	"web table1":           "8553da64259500ce",
	"web graphgen":         "a51945073620680a",
	"powerlaw table1":      "0520bc060c1a52eb",
	"powerlaw graphgen":    "3b8f148b7b59f7f2",
}

func TestStandInsGolden(t *testing.T) {
	const seed = 20170321
	graphs := map[string]*graph.Graph{
		"ldbc table1":          LDBC(2000, 5, seed+2),
		"ldbc fig6/7":          LDBC(2000, 16, seed),
		"ldbc graphgen":        LDBC(2000, 5, 42),
		"collaboration table1": Collaboration(2000, 56, seed+4),
		"collaboration gen":    Collaboration(2000, 16, 42),
		"web table1":           Web(2000, 20, seed+5),
		"web graphgen":         Web(2000, 16, 42),
		"powerlaw table1":      PowerLaw(2000, seed+6),
		"powerlaw graphgen":    PowerLaw(2000, 42),
	}
	for name, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got, want := csrHash(g), goldenStandIns[name]; got != want {
			t.Errorf("%q: %q, // got; want %q", name, got, want)
		}
	}
}

// totalAlloc returns the bytes f allocates, live or not. It bounds the
// work of a build, not what the build costs a process at its peak: garbage
// costs RSS only until a collection reclaims it, and what a graph keeps
// alive is TestBuiltGraphRetainsOnlyItsArcs' to hold.
func totalAlloc(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// liveGrowth returns how much f grows the live heap: HeapAlloc after a
// collection, before and after f. The first of the two collections before
// f empties the sync.Pools' victim caches, which outlive one collection.
func liveGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// heapPage is the allocator's page: it rounds an object larger than 32 KiB
// up to whole pages.
const heapPage = 8192

// pages is the heap a large object of the given bytes takes.
func pages(bytes int64) int64 { return (bytes + heapPage - 1) / heapPage * heapPage }

// TestBuiltGraphRetainsOnlyItsArcs: every producer returns a graph that
// keeps alive its offsets and its adjacency and nothing else — not the
// endpoint buffer it was built from, whose tail past the distinct arcs is
// dead — so a collection after the build leaves the live heap grown by the
// two arrays, each rounded up to whole pages, within one page. A graph that
// kept its buffer would keep twice its adjacency for an edge list that
// names every edge in both orientations, and 66 KB (social) to 1.1 MB
// (Kronecker) more at these sizes for the generators, whose draws repeat
// edges and draw loops. The ids of a load are its own array beside the
// graph.
func TestBuiltGraphRetainsOnlyItsArcs(t *testing.T) {
	kept := func(g *graph.Graph) int64 {
		return pages(4*int64(len(g.Offsets))) + pages(4*int64(len(g.Adjacency)))
	}
	check := func(name string, grew, want int64) {
		t.Helper()
		if d := grew - want; d > heapPage || d < -heapPage {
			t.Errorf("%s: the live heap grew by %d bytes, %d past the graph's %d", name, grew, d, want)
		}
	}
	var kron *graph.Graph
	for _, s := range []string{"kron:scale=16", "uniform:n=65536", "social:n=65536", "powerlaw:n=65536", "web:n=65536", "collab:n=65536"} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		var g *graph.Graph
		grew := liveGrowth(func() { g, err = spec.Build() })
		if err != nil {
			t.Fatal(err)
		}
		check(s, grew, kept(g))
		if kron == nil {
			kron = g
		}
	}

	var text bytes.Buffer
	for v := 0; v < kron.NumVertices(); v++ {
		for _, u := range kron.Neighbors(v) {
			fmt.Fprintf(&text, "%d %d\n", v, u)
		}
	}
	var l *graph.Graph
	var ids []int64
	var err error
	grew := liveGrowth(func() { l, ids, err = graph.LoadEdgeList(&text) })
	if err != nil {
		t.Fatal(err)
	}
	if l.NumEdges() != kron.NumEdges() {
		t.Fatalf("the listing of both orientations loads %d edges, want %d", l.NumEdges(), kron.NumEdges())
	}
	check("load of both orientations", grew, kept(l)+pages(8*int64(cap(ids))))
	runtime.KeepAlive(&text)
}

// TestConstructionMemoryBudget bounds what generation and the striped
// relabel allocate, each as a multiple of the graph it returns, with the
// collector running; each budget sits just above what the build's arrays
// sum to, so that one more arc-sized array fails it. The sort-based
// pipeline this replaced measured 8.8x (10.6x through BuildParallel) and
// 1.48x, the scatter-and-transpose build 2.51x. Generation allocates its
// endpoint buffer (about 1.15x the distinct arcs, as Kronecker draws
// duplicates and loops), the exact arc array that FromPairs lays the rows
// into when it drops any, the two counter arrays (one becomes the offsets)
// and the scrambling permutation: 2.27x of the graph. Built inside the
// buffer, as before, it allocated 1.31x but kept the buffer's dead tail
// alive with the graph; the buffer is garbage once the build returns, and
// the first collection of the relabel that follows reclaims it, which
// lowered VmHWM after generate → striped relabel → one 64-source op at
// every scale 16–20 probed (docs/BENCHMARKS.md). The relabel allocates one
// exact-size CSR beside its permutation and inverse. Loading the graph's
// edge list reads its endpoints into chunks and copies them once into the
// exact endpoint buffer, beside the id interning map: 2.89x of the graph,
// where one append-grown buffer (5.51x) and, before it, a 16-byte pair per
// edge beside that buffer (15.75x) allocated more. SaveEdgeList writes
// each edge once, so that load drops nothing and builds in its buffer.
func TestConstructionMemoryBudget(t *testing.T) {
	var g, s, l *graph.Graph
	generate := totalAlloc(func() { g = Kronecker(Graph500Params(14, 20170321)) })
	relabel := totalAlloc(func() { s = striped(g) })
	var text bytes.Buffer
	if err := graph.SaveEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	load := totalAlloc(func() { l, _, _ = graph.LoadEdgeList(&text) })
	for _, c := range []struct {
		name   string
		got    int64
		result *graph.Graph
		budget float64
	}{
		{"generate", generate, g, 2.35},
		{"striped relabel", relabel, s, 1.15},
		{"generate + striped relabel", generate + relabel, s, 3.45},
		{"load edge list", load, l, 3.18},
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
		kept := float64(pages(4*int64(a)) + 8*below)
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
	slack := 8*int64(g.MaxDegree()+1) + 5*heapPage
	if relabel > arrays+slack {
		t.Errorf("striped relabel allocated %d bytes: newID, the CSR and inv are %d, the histogram and rounding %d",
			relabel, arrays, slack)
	}
	t.Logf("Components %.3fx of its results; striped relabel %d bytes over its arrays",
		float64(labels)/results, relabel-arrays)
}

// TestEdgeCounterMatchesFullCount: the counter, which keeps state for the
// active prefix only and reads degrees, answers for every vertex what
// counting the arcs v → u with v < u of each vertex's component over the
// whole graph does — on the golden graphs, raw and striped, on an LDBC
// graph, and on a graph whose prefix holds isolated vertices and ends on
// one arc's far end.
func TestEdgeCounterMatchesFullCount(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"isolated inside the prefix": graph.FromEdges(12, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 4}, {U: 6, V: 8}, {U: 0, V: 9}}),
		"ldbc":                       LDBC(3000, 5, 1),
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
			for _, u := range g.Neighbors(v) {
				if graph.VertexID(v) < u {
					edges[comp[v]]++
				}
			}
		}
		c := metrics.NewEdgeCounter(g)
		for v := range comp {
			if got, want := c.EdgesFor(v), edges[comp[v]]; got != want {
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
	if want := [4]int64{31_505_636, 173_971, 88_214, 41}; got != want {
		t.Errorf("memory bytes, active prefix, components, components below the prefix = %v, want %v", got, want)
	}
	counter := totalAlloc(func() { metrics.NewEdgeCounter(g) })
	kept := float64(4*got[1] + 8*got[3])
	if float64(counter) > 1.05*kept {
		t.Errorf("NewEdgeCounter allocated %d bytes, %.3fx of its %.0f-byte arrays (budget 1.05x)", counter, float64(counter)/kept, kept)
	}
}

// TestConcurrentPipelinesGolden generates and relabels on several
// goroutines at once: each builds from a buffer of its own, and under
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
