package gen

import (
	"fmt"

	"repro/internal/graph"
)

// KroneckerParams configures the Graph500 Kronecker (R-MAT) generator.
type KroneckerParams struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the average number of undirected edges per vertex;
	// the Graph500 benchmark uses 16.
	EdgeFactor int
	// A, B, C are the R-MAT quadrant probabilities; D = 1-A-B-C.
	// Graph500 uses A=0.57, B=0.19, C=0.19 (D=0.05).
	A, B, C float64
	// Seed makes the generation deterministic.
	Seed uint64
}

// Graph500Params returns the standard Graph500 Kronecker parameters at the
// given scale: edgefactor 16 and (A,B,C,D) = (0.57, 0.19, 0.19, 0.05).
func Graph500Params(scale int, seed uint64) KroneckerParams {
	return KroneckerParams{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// KG0Params returns a high-average-degree Kronecker configuration modeled
// after the KG0 graph of the iBFS evaluation (Liu et al., SIGMOD 2016),
// which used an average out-degree of 1024. At container scale we keep the
// dense character with a smaller edge factor; callers can override.
func KG0Params(scale, edgeFactor int, seed uint64) KroneckerParams {
	return KroneckerParams{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// Kronecker generates an undirected Kronecker (R-MAT) graph. As in the
// Graph500 reference generator, edge endpoints are independently sampled
// quadrant by quadrant; self-loops and duplicate edges are discarded by the
// CSR builder, and vertex ids are scrambled by a random permutation so that
// vertex id carries no degree information (the labeling schemes under test
// are applied afterwards and must not get the ordering for free).
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

	ab := p.A + p.B
	cNorm := p.C / (1 - ab)

	for i := 0; i < len(pairs); i += 2 {
		var u, v graph.VertexID
		for bit := 0; bit < p.Scale; bit++ {
			// Choose the quadrant for this bit of (u, v).
			f := r.float64()
			var ubit, vbit graph.VertexID
			if f < ab {
				// Top half: u bit 0.
				if f < p.A {
					ubit, vbit = 0, 0
				} else {
					ubit, vbit = 0, 1
				}
			} else {
				if r.float64() < cNorm {
					ubit, vbit = 1, 0
				} else {
					ubit, vbit = 1, 1
				}
			}
			u = u<<1 | ubit
			v = v<<1 | vbit
		}
		pairs[i], pairs[i+1] = u, v
	}

	// Scramble vertex ids. The permutation is drawn after the edges, and
	// applied to them before the one CSR build.
	perm := r.perm(n)
	for i, id := range pairs {
		pairs[i] = perm[id]
	}
	return graph.FromPairs(n, pairs)
}
