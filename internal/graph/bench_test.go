package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// BenchmarkBuild times CSR construction: FromEdges over a random
// multigraph, and the offline set-up at Kronecker scale 18 — generation,
// whose build runs inside the endpoint buffer, and the striped relabel in
// the benchmark's layout — as separate sub-benchmarks, so that each can be
// paired between two commits with -count 10.
func BenchmarkBuild(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		edges := graph.RandomEdges(1<<14, 1<<16, 12345)
		b.ReportAllocs()
		for b.Loop() {
			graph.FromEdges(1<<14, edges)
		}
	})
	b.Run("kronecker18/generate", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			gen.Kronecker(gen.Graph500Params(18, 20170321))
		}
	})
	b.Run("kronecker18/striped", func(b *testing.B) {
		g := gen.Kronecker(gen.Graph500Params(18, 20170321))
		b.ReportAllocs()
		for b.Loop() {
			label.Apply(g, label.Striped, label.Params{Workers: 2, TaskSize: 512})
		}
	})
}
