package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
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

func TestKroneckerGolden(t *testing.T) {
	for _, scale := range []int{8, 12, 14} {
		for _, seed := range []uint64{1, 7, 20170321} {
			key := fmt.Sprintf("%d/%d", scale, seed)
			g := Kronecker(Graph500Params(scale, seed))
			s, _ := label.Apply(g, label.Striped, label.Params{Workers: 2, TaskSize: 512})
			got := [2]string{csrHash(g), csrHash(s)}
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
// array; one CSR + a few n-sized arrays).
func TestConstructionMemoryBudget(t *testing.T) {
	var g, s *graph.Graph
	gen := totalAlloc(func() { g = Kronecker(Graph500Params(14, 20170321)) })
	if limit := 3.0 * float64(g.MemoryBytes()); float64(gen) > limit {
		t.Errorf("Kronecker allocated %d bytes for a %d-byte graph (%.2fx, budget 3.0x)",
			gen, g.MemoryBytes(), float64(gen)/float64(g.MemoryBytes()))
	}
	relabel := totalAlloc(func() { s, _ = label.Apply(g, label.Striped, label.Params{Workers: 2, TaskSize: 512}) })
	if limit := 1.3 * float64(s.MemoryBytes()); float64(relabel) > limit {
		t.Errorf("striped relabel allocated %d bytes for a %d-byte graph (%.2fx, budget 1.3x)",
			relabel, s.MemoryBytes(), float64(relabel)/float64(s.MemoryBytes()))
	}
	t.Logf("Kronecker %.2fx, striped relabel %.2fx of the result", float64(gen)/float64(g.MemoryBytes()), float64(relabel)/float64(s.MemoryBytes()))
}
