package gen

import (
	"fmt"

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

// tA, tAB and tABC are the cumulative Graph500 R-MAT quadrant
// probabilities A = 0.57, A+B = 0.76 and A+B+C = 0.95 (D = 0.05) as
// thresholds on a 32-bit draw r: t_p = ceil(p·2^32) is the least r with
// r/2^32 ≥ p, so r < t_A with probability A to within 2^-32, and so on.
const (
	tA   = (57<<32 + 99) / 100
	tAB  = (76<<32 + 99) / 100
	tABC = (95<<32 + 99) / 100
)

// Kronecker generates an undirected Kronecker (R-MAT) graph. As in the
// Graph500 reference generator, edge endpoints are independently sampled
// quadrant by quadrant; self-loops and duplicate edges are discarded by the
// CSR builder, and vertex ids are scrambled by a random permutation so that
// vertex id carries no degree information (the labeling schemes under test
// are applied afterwards and must not get the ordering for free).
//
// Edge i is a function of (seed, scale, i) only: it is drawn from its own
// fixed slice of one SplitMix64 stream (rmatEdges), so a larger edge factor
// keeps the smaller one's edges as its first ones.
//
// It panics on a scale outside [0, 32] (vertex ids are 32-bit), a negative
// edge factor, or more endpoints than one CSR build addresses
// (graph.MaxEndpoints), naming the argument at fault.
func Kronecker(p KroneckerParams) *graph.Graph {
	return graph.FromPairs(kroneckerPairs(p))
}

// kroneckerPairs checks p and returns the vertex count and the scrambled
// endpoint buffer, edge i = {pairs[2i], pairs[2i+1]}: the layout
// graph.FromPairs takes ownership of and builds the CSR inside.
func kroneckerPairs(p KroneckerParams) (int, []graph.VertexID) {
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
	// The scrambling permutation comes first from the seeded xorshift128+,
	// then the key of the edges' stream; the edges are mapped through the
	// permutation as they are drawn.
	r := newRNG(p.Seed)
	perm := r.perm(n)
	pairs := make([]graph.VertexID, 2*int64(n)*int64(p.EdgeFactor))
	rmatEdges(pairs, p.Scale, r.next(), perm)
	return n, pairs
}

// rmatEdges fills pairs with R-MAT edges of scale bits each, mapped through
// perm, which has 2^scale entries. Edge i takes words i·W … i·W+W-1,
// W = ceil(scale/2), of the SplitMix64 stream keyed by key; each level
// reads one 32-bit half, high half first, and picks its quadrant q, whose
// high bit is the level's bit of u and low bit that of v. No draw depends
// on another, so nothing but the stream counter is carried from one edge
// to the next.
func rmatEdges(pairs []graph.VertexID, scale int, key uint64, perm []graph.VertexID) {
	// The first test is implied by the second below scale 64, but it is
	// what lets the compiler prove perm[x&mask] in bounds.
	if len(perm) == 0 || len(perm) != 1<<scale {
		panic("gen: R-MAT permutation is not 2^scale ids long")
	}
	mask := uint64(len(perm) - 1)
	ctr := key
	//bfs:hot R-MAT draws: one SplitMix64 word per two levels, no branch, no allocation
	for rest := pairs; len(rest) >= 2; rest = rest[2:] {
		var uv uint64 // u in the high 32 bits, v in the low 32
		for range scale / 2 {
			ctr += splitmixGamma
			w := splitmix(ctr)
			uv = uv<<2 | spread[(quadrant(w>>32)<<2|quadrant(w&(1<<32-1)))&15]
		}
		if scale&1 != 0 {
			ctr += splitmixGamma
			uv = uv<<1 | spread[quadrant(splitmix(ctr)>>32)&15]
		}
		rest[0] = perm[uv>>32&mask]
		rest[1] = perm[uv&mask]
	}
}

// spread maps two levels' quadrants, q1<<2 | q2, to their two bits of u in
// the high 32 bits and their two bits of v in the low 32: a quadrant's
// high bit is u's and its low bit v's. rmatEdges masks the index with 15
// only so that the compiler proves it in bounds.
var spread = func() (s [16]uint64) {
	for i := range s {
		u, v := uint64(i>>2&2|i>>1&1), uint64(i>>1&2|i&1)
		s[i] = u<<32 | v
	}
	return s
}()

// kA, kAB and kABC carry a 32-bit draw r into bit 32 iff r ≥ tA, tAB, tABC.
const kA, kAB, kABC = 1<<32 - tA, 1<<32 - tAB, 1<<32 - tABC

// quadrant returns the R-MAT quadrant, 0…3 for A…D, that the 32-bit draw r
// picks: q = [r ≥ tA] + [r ≥ tAB] + [r ≥ tABC], each compare the carry out
// of a 32-bit add, so that none branches.
func quadrant(r uint64) uint64 {
	return (r+kA)>>32 + (r+kAB)>>32 + (r+kABC)>>32
}
