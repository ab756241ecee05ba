package graph_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// BenchmarkBuild times CSR construction: FromEdges over a random
// multigraph, and the offline set-up at Kronecker scale 18 — generation,
// whose build lays its rows into an exact array, and the striped relabel in
// the benchmark's layout — as separate sub-benchmarks, so that each can be
// paired between two commits with -count 10. The generate line reports,
// beside the bytes a build allocates, the bytes the last one leaves live
// after a collection (live-B): the graph's arrays, when the build keeps
// nothing else.
func BenchmarkBuild(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		edges := graph.RandomEdges(1<<14, 1<<16, 12345)
		b.ReportAllocs()
		for b.Loop() {
			graph.FromEdges(1<<14, edges)
		}
	})
	b.Run("kronecker18/generate", func(b *testing.B) {
		var g *graph.Graph
		before := liveHeap()
		b.ReportAllocs()
		for b.Loop() {
			g = gen.Kronecker(gen.Graph500Params(18, 20170321))
		}
		b.ReportMetric(float64(liveHeap()-before), "live-B")
		runtime.KeepAlive(g)
	})
	b.Run("kronecker18/striped", func(b *testing.B) {
		g := gen.Kronecker(gen.Graph500Params(18, 20170321))
		b.ReportAllocs()
		for b.Loop() {
			label.Apply(g, label.Striped, label.Params{Workers: 2})
		}
	})
}

// liveHeap returns the live heap after a collection; the first of the two
// empties the sync.Pools' victim caches.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
