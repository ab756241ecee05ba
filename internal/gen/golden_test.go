package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// csrHash is the first 8 bytes of SHA-256 over the little-endian Offsets
// then Adjacency arrays: two graphs hash equal iff their CSRs are
// byte-identical (up to collisions).
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
// leave them byte-identical. The hashes were recorded at commit beb82f6
// (sort-based Build/BuildParallel/Relabel), before the sort-free rewrite;
// striped uses the benchmark's layout (2 workers, task size 512).
var goldenKronecker = map[string][2]string{
	// "scale/seed": {raw, striped}
	"8/1":         {"3199f9645550ec89", "5f680c6e6c1bdf7e"},
	"8/7":         {"05a41efcd67098b2", "826e4a3041baec20"},
	"8/20170321":  {"d91c9cf71d2f55ec", "4bb64757513090f9"},
	"12/1":        {"be78d2e31e97a8c2", "3222664f1a6a15ca"},
	"12/7":        {"82d605e0a41746de", "be5615251626a9d8"},
	"12/20170321": {"79d3953ecebb81ff", "83daa0a6a55a2c55"},
	"14/1":        {"1340c8cca1dc1840", "e5e5903951d4495e"},
	"14/7":        {"546dccaa39de5fb0", "1fa614eedff897df"},
	"14/20170321": {"d878b1fab6ea25dc", "aaf7ffd5270f5aec"},
}

// striped relabels g in the benchmark's layout.
func striped(g *graph.Graph) *graph.Graph {
	s, _ := label.Apply(g, label.Striped, label.Params{Workers: 2, TaskSize: 512})
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
// relabel allocate, as a multiple of the graph they return. The sort-based
// pipeline this replaced measured 8.8x (10.6x through BuildParallel) and
// 1.48x; the sort-free one 2.51x and 1.20x (endpoint buffer + one arc
// array; one CSR + a few n-sized arrays). Run back to back the two now share
// the endpoint buffer through graph's arc recycler, so the relabel allocates
// only its n-sized arrays (0.27x with an order and a cursor array beside
// the permutation, offsets and inverse; 0.17x without); the cold row is a
// relabel that finds the recycler empty and allocates as before.
func TestConstructionMemoryBudget(t *testing.T) {
	var g, s *graph.Graph
	// No collection between the build and the relabel: the recycler holds
	// its buffer weakly, and a cycle in that gap is a legitimate miss.
	gcPercent := debug.SetGCPercent(-1)
	gen := totalAlloc(func() { g = Kronecker(Graph500Params(14, 20170321)) })
	warm := totalAlloc(func() { s = striped(g) })
	debug.SetGCPercent(gcPercent)
	size := float64(s.MemoryBytes())
	if total := float64(gen + warm); total > 2.9*size {
		t.Errorf("generate + striped relabel allocated %d bytes for a %d-byte graph (%.2fx, budget 2.9x)", gen+warm, s.MemoryBytes(), total/size)
	}
	if float64(warm) > 0.2*size {
		t.Errorf("striped relabel after generate allocated %d bytes for a %d-byte graph (%.2fx, budget 0.2x): a second arc array or n-sized scratch",
			warm, s.MemoryBytes(), float64(warm)/size)
	}
	if got := [2]string{csrHash(g), csrHash(s)}; got != goldenKronecker["14/20170321"] {
		t.Errorf("graphs built through the recycler hash to %q, want %q", got, goldenKronecker["14/20170321"])
	}

	runtime.GC()
	runtime.GC()
	cold := totalAlloc(func() { s = striped(g) })
	if float64(cold) > 1.3*size {
		t.Errorf("cold striped relabel allocated %d bytes for a %d-byte graph (%.2fx, budget 1.3x)", cold, s.MemoryBytes(), float64(cold)/size)
	}
	if float64(cold) < size {
		t.Errorf("cold striped relabel allocated %d bytes for a %d-byte graph: the recycler survived two GC cycles", cold, s.MemoryBytes())
	}
	t.Logf("Kronecker %.2fx, striped relabel %.2fx after it, %.2fx cold, of the result", float64(gen)/size, float64(warm)/size, float64(cold)/size)
}

// TestAnalysisMemoryBudget holds the analyses that run beside construction
// to their results. The component labeling allocates comp (4 bytes a
// vertex) and sizes (8 bytes a component), and the edge counter the same
// two arrays, its per-component slots holding edges instead of vertices.
// A striped relabel on a recycler hit allocates the permutation, the new
// offsets, one inverse permutation and, beside those n-sized arrays, only
// the degree histogram and a block's worth of slack. A search-based
// labeling would add its stack and an appended sizes slice (the counter a
// second per-component array), a relabel an order and a cursor array.
func TestAnalysisMemoryBudget(t *testing.T) {
	g := Kronecker(Graph500Params(14, 20170321))
	n := int64(g.NumVertices())
	var sizes []int64
	labels := totalAlloc(func() { _, sizes = graph.Components(g) })
	counter := totalAlloc(func() { metrics.NewEdgeCounter(g) })
	results := float64(4*n + 8*int64(len(sizes)))
	for name, got := range map[string]int64{"Components": labels, "NewEdgeCounter": counter} {
		if float64(got) > 1.05*results {
			t.Errorf("%s allocated %d bytes for %d vertices in %d components (%.2fx its results, budget 1.05x)",
				name, got, n, len(sizes), float64(got)/results)
		}
	}

	const workers, taskSize = 2, 512
	gcPercent := debug.SetGCPercent(-1)
	g = Kronecker(Graph500Params(14, 20170321)) // loads the arc recycler
	warm := totalAlloc(func() { striped(g) })
	debug.SetGCPercent(gcPercent)
	nSized := 4*n + 8*(n+1) + 4*n // newID, offsets, inv
	// The degree histogram, a block of ids, and the allocator's rounding:
	// up to a page on each of the four arrays.
	slack := 8*int64(g.MaxDegree()+1) + 4*workers*taskSize + 4*8192
	if warm > nSized+slack {
		t.Errorf("striped relabel after generate allocated %d bytes: newID, offsets and inv are %d, the histogram, a block and rounding %d",
			warm, nSized, slack)
	}
	t.Logf("Components %.3fx, NewEdgeCounter %.3fx of their results; striped relabel %d bytes over its n-sized arrays",
		float64(labels)/results, float64(counter)/results, warm-nSized)
}

// TestConcurrentPipelinesGolden generates and relabels on several
// goroutines at once: they compete for the one recycled buffer, and under
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
