package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// KroneckerParams configures the Graph500 Kronecker (R-MAT) generator. The
// quadrant probabilities are Graph500's, (A, B, C, D) = (0.57, 0.19, 0.19,
// 0.05), for every graph.
type KroneckerParams struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the average number of undirected edges per vertex;
	// the Graph500 benchmark uses 16.
	EdgeFactor int
	// Seed makes the generation deterministic.
	Seed uint64
}

// Graph500Params returns the standard Graph500 Kronecker parameters at the
// given scale: edgefactor 16.
func Graph500Params(scale int, seed uint64) KroneckerParams {
	return KroneckerParams{Scale: scale, EdgeFactor: 16, Seed: seed}
}

// rmatA, rmatB and rmatC are Graph500's R-MAT quadrant probabilities;
// D = 1 - A - B - C = 0.05.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// threshold returns the least 64-bit generator output that a float64
// sampler maps to p or above. Such a sampler turns output x into
// float64(x>>11)/2^53, which is exact, so it reads x as below p iff
// x>>11 < ceil(p·2^53), that is iff x < ceil(p·2^53)·2^11; p·2^53 and its
// ceiling are exact too. p must lie in [0, 1 - 2^-53].
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p*(1<<53))) << 11
}

// rmatThresholds returns the thresholds of the top half (A+B), of quadrant
// A inside it, and of quadrant C inside the bottom half (C/(1-(A+B))).
// They are computed in float64, rounding after each operation as the
// float64 sampler did: untyped-constant arithmetic is exact, and C/(1-(A+B))
// taken exactly rounds to a float64 one below the sampler's, which would
// move the threshold by one.
func rmatThresholds() (tAB, tA, tC uint64) {
	a, b, c := float64(rmatA), float64(rmatB), float64(rmatC)
	ab := a + b
	return threshold(ab), threshold(a), threshold(c / (1 - ab))
}

// Kronecker generates an undirected Kronecker (R-MAT) graph. As in the
// Graph500 reference generator, edge endpoints are independently sampled
// quadrant by quadrant; self-loops and duplicate edges are discarded by the
// CSR builder, and vertex ids are scrambled by a random permutation so that
// vertex id carries no degree information (the labeling schemes under test
// are applied afterwards and must not get the ordering for free).
//
// The draws (rmatEdges) compare as integers and do not branch, but the
// stream, the edges and the graph are those of drawing one float64 at a
// time and branching on it.
//
// It panics on a scale outside [0, 32] (vertex ids are 32-bit), a negative
// edge factor, or more endpoints than one CSR build addresses
// (graph.MaxEndpoints), naming the argument at fault.
func Kronecker(p KroneckerParams) *graph.Graph {
	if p.Scale < 0 || p.Scale > 32 {
		panic(fmt.Sprintf("gen: Kronecker scale %d outside [0, 32]", p.Scale))
	}
	if p.EdgeFactor < 0 {
		panic(fmt.Sprintf("gen: Kronecker edge factor %d is negative", p.EdgeFactor))
	}
	n := 1 << uint(p.Scale)
	if uint64(p.EdgeFactor) > graph.MaxEndpoints/2/uint64(n) {
		panic(fmt.Sprintf("gen: Kronecker edge factor %d at scale %d draws %d endpoints, more than one CSR build addresses (%d)",
			p.EdgeFactor, p.Scale, 2*uint64(n)*uint64(p.EdgeFactor), uint64(graph.MaxEndpoints)))
	}
	m := int64(n) * int64(p.EdgeFactor)
	r := newRNG(p.Seed)
	// Flat endpoint buffer, edge i = {pairs[2i], pairs[2i+1]}: the layout
	// graph.FromPairs takes ownership of and builds the CSR inside, so pairs
	// is not touched again after the call.
	pairs := make([]graph.VertexID, 2*m)
	r.s0, r.s1 = rmatEdges(pairs, p.Scale, r.s0, r.s1)

	// Scramble vertex ids. The permutation is drawn after the edges, and
	// applied to them before the one CSR build.
	perm := r.perm(n)
	for i, id := range pairs {
		pairs[i] = perm[id]
	}
	return graph.FromPairs(n, pairs)
}

// rmatEdges fills pairs with R-MAT edges of scale bits each, drawn from the
// xorshift128+ state (s0, s1) by rng.next's steps, and returns the state
// after the last draw. Each bit takes one draw, and a second when the
// first falls in the bottom half. The loop always computes both, from the
// state in locals, selects without a branch, and moves the state past one
// draw in the top half and two in the bottom, as drawing on demand would.
func rmatEdges(pairs []graph.VertexID, scale int, s0, s1 uint64) (uint64, uint64) {
	tAB, tA, tC := rmatThresholds()
	//bfs:hot R-MAT draws: two per bit, no branch, no allocation
	for rest := pairs; len(rest) >= 2; rest = rest[2:] {
		var uv uint64 // u in the high 32 bits, v in the low 32
		for range scale {
			// First draw, x+s1: the state (s0, s1) steps to (s1, x).
			x := s0 ^ s0<<23
			x ^= x>>17 ^ s1 ^ s1>>26
			// Second draw, y+x: (s1, x) steps to (x, y).
			y := s1 ^ s1<<23
			y ^= y>>17 ^ x ^ x>>26
			var vTop, vBottom uint64
			if x+s1 >= tA {
				vTop = 1
			}
			if y+x >= tC {
				vBottom = 1
			}
			next0, next1, bits := x, y, 1<<32|vBottom
			if x+s1 < tAB {
				next0, next1, bits = s1, x, vTop
			}
			uv = uv<<1 | bits
			s0, s1 = next0, next1
		}
		rest[0], rest[1] = graph.VertexID(uv>>32), graph.VertexID(uv)
	}
	return s0, s1
}
