// Package label implements the vertex labeling (re-numbering) schemes the
// paper evaluates: random labeling, degree-ordered labeling (Yasui et al.),
// and the paper's novel striped labeling (Section 4.3), which deals
// degree-ordered vertices round-robin over the workers' stripes — the
// sched.Stripes layout the kernels own — so that high-degree vertices are
// simultaneously cache-clustered and spread evenly across workers.
//
// A labeling is expressed as a permutation newID with newID[v] being the new
// identifier of the original vertex v; graphs are re-numbered with
// graph.Relabel.
package label

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// Scheme identifies a labeling strategy.
type Scheme int

const (
	// Identity keeps the generator's vertex order.
	Identity Scheme = iota
	// Random assigns ids by a seeded random permutation.
	Random
	// DegreeOrdered assigns dense ids in order of descending degree: the
	// highest-degree vertex gets id 0. This is the cache-friendly labeling
	// of Yasui et al. that the paper uses as a baseline.
	DegreeOrdered
	// Striped is the paper's scheduling-aware labeling: degree-ordered
	// vertices are dealt round-robin over the workers' stripes (Section
	// 4.3).
	Striped
)

// String returns the scheme name as used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Identity:
		return "identity"
	case Random:
		return "random"
	case DegreeOrdered:
		return "ordered"
	case Striped:
		return "striped"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Params carries the inputs a scheme may need.
type Params struct {
	// Workers is the number of worker threads (P); required by Striped.
	Workers int
	// Seed drives the Random scheme.
	Seed uint64
}

// Permutation computes the newID permutation for the scheme on graph g.
func Permutation(g *graph.Graph, s Scheme, p Params) []graph.VertexID {
	n := g.NumVertices()
	switch s {
	case Identity:
		newID := make([]graph.VertexID, n)
		for v := range newID {
			newID[v] = graph.VertexID(v)
		}
		return newID
	case Random:
		return randomPermutation(n, p.Seed)
	case DegreeOrdered:
		rank, _ := degreeRanks(g)
		return rank
	case Striped:
		return StripedPermutation(g, p.Workers)
	default:
		panic(fmt.Sprintf("label: unknown scheme %d", int(s)))
	}
}

// Apply relabels g with the given scheme and returns the relabeled graph
// together with the permutation used (newID[original] = new id).
func Apply(g *graph.Graph, s Scheme, p Params) (*graph.Graph, []graph.VertexID) {
	perm := Permutation(g, s, p)
	return graph.Relabel(g, perm), perm
}

func randomPermutation(n int, seed uint64) []graph.VertexID {
	newID := make([]graph.VertexID, n)
	for v := range newID {
		newID[v] = graph.VertexID(v)
	}
	// xorshift64* shuffle; deterministic for a seed, independent of
	// math/rand version changes.
	x := seed
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545f4914f6cdd1d
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		newID[i], newID[j] = newID[j], newID[i]
	}
	return newID
}

// degreeRanks returns, for every vertex, its rank by descending degree,
// ties broken by ascending vertex id for determinism: a counting sort on
// degree that writes each vertex's rank instead of the sorted order. a is
// the number of vertices with an edge, which hold the ranks below a.
func degreeRanks(g *graph.Graph) (rank []graph.VertexID, a int) {
	n := g.NumVertices()
	// start[d] is the rank of the next vertex of degree d: at first the
	// number of vertices with a larger degree.
	start := make([]int, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		start[g.Degree(v)]++
	}
	for d, higher := len(start)-1, 0; d >= 0; d-- {
		start[d], higher = higher, higher+start[d]
	}
	a = start[0]
	rank = make([]graph.VertexID, n)
	for v := range rank {
		d := g.Degree(v)
		rank[v] = graph.VertexID(start[d])
		start[d]++
	}
	return rank, a
}

// StripedPermutation implements the striped vertex labeling of Section 4.3
// over the stripes the kernels own: the n-vertex layout
// sched.NewStripes(n, workers, sched.StripeStride) clipped at a, the
// number of vertices with an edge.
//
// Vertices are ranked by descending degree. Ranks 0..a-1 are dealt
// round-robin over stripes 0, 1, ..., P-1, skipping any stripe already
// full, and each stripe fills upward from its lower border: the P hottest
// vertices open the P stripes, the next P take their second ids, and so
// on, so the workers own near-equal shares of the degree mass, hottest
// first. Ranks a..n-1, the isolated vertices, keep their ranks as ids.
func StripedPermutation(g *graph.Graph, workers int) []graph.VertexID {
	if workers < 1 {
		panic("label: striped labeling requires workers >= 1")
	}
	newID, a := degreeRanks(g)
	deal(newID, sched.NewStripes(len(newID), workers, sched.StripeStride).Clip(a))
	return newID
}

// deal rewrites every rank r < s.N() to the id the round-robin deal over
// s's stripes hands it. With stripe length L, the clipped stripes are
// k = a/L full ones and one of rem = a%L ids, so the deal has a closed
// form: for the first m*rem ranks, m being the non-empty stripes, all m
// take one rank per round,
//
//	stripe = r mod m, id = stripe*L + r/m,
//
// and after that the k full stripes alone: with j = r - m*rem,
//
//	stripe = j mod k, id = stripe*L + rem + j/k.
//
// It runs in 32-bit arithmetic: ids fit, and so do L and every product
// below a.
func deal(rank []graph.VertexID, s sched.Stripes) {
	per, a := uint32(s.Per()), uint32(s.N())
	k, rem := a/per, a%per
	m := k
	if rem > 0 {
		m++
	}
	head := m * rem
	k = max(k, 1) // a rank past head is isolated when no stripe is full
	for v, r := range rank {
		// Both phases are one formula; selecting its inputs instead of
		// branching keeps the loop free of the mispredictions that ranks in
		// vertex order would cause.
		j, d, base := r, m, uint32(0)
		if r >= head {
			j, d, base = r-head, k, rem
		}
		id := j%d*per + base + j/d
		if r >= a {
			id = r // isolated: keeps its rank
		}
		rank[v] = id
	}
}
