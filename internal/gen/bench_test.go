package gen

import "testing"

// BenchmarkRMAT18 times the sampler alone at the offline workloads' scale:
// kroneckerPairs draws the scrambling permutation and every endpoint of
// the scale-18 benchmark graph, without the CSR build that
// graph.BenchmarkBuild/kronecker18/generate adds, so that the draw can be
// paired between two commits with -count 10.
func BenchmarkRMAT18(b *testing.B) {
	p := Graph500Params(18, 20170321)
	b.ReportAllocs()
	for b.Loop() {
		kroneckerPairs(p)
	}
}
