// Package gen provides the graph generators used by the evaluation: the
// Graph500 Kronecker (R-MAT) generator, an LDBC-like social network
// generator, and parameterized stand-ins for the paper's real-world graphs
// (twitter, uk-2005, hollywood-2011). All generators are deterministic for
// a given seed so experiments are reproducible.
package gen

import "repro/internal/graph"

// rng is a small, fast, seedable PRNG (xorshift128+). The generators are in
// hot paths that produce billions of random numbers at the larger scales;
// math/rand's lock and interface indirection are measurable there, and a
// local implementation keeps the generated graphs stable across Go
// releases.
type rng struct {
	s0, s1 uint64
}

// newRNG seeds the generator. Any seed, including zero, is valid.
func newRNG(seed uint64) *rng {
	// SplitMix64 to spread the seed into two non-zero words.
	r := &rng{s0: splitmix(seed + splitmixGamma)}
	r.s1 = splitmix(r.s0 + splitmixGamma)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// splitmixGamma is SplitMix64's stream increment, the odd integer nearest
// 2^64 divided by the golden ratio.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix is SplitMix64's output function: the stream's word at counter
// z. Word k of the stream keyed by c is splitmix(c + (k+1)·splitmixGamma).
func splitmix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// next returns the next 64-bit value.
func (r *rng) next() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n). It panics for n <= 0.
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("gen: intn with non-positive bound")
	}
	return int(r.next() % uint64(n))
}

// perm returns a random permutation of [0, n) as vertex ids.
func (r *rng) perm(n int) []graph.VertexID {
	p := make([]graph.VertexID, n)
	for i := range p {
		p[i] = graph.VertexID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
