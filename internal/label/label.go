// Package label implements the vertex labeling (re-numbering) schemes the
// paper evaluates: random labeling, degree-ordered labeling (Yasui et al.),
// and the paper's novel striped labeling (Section 4.3), which distributes
// degree-ordered vertices round-robin across the workers' task ranges so
// that high-degree vertices are simultaneously cache-clustered and
// spread across workers.
//
// A labeling is expressed as a permutation newID with newID[v] being the new
// identifier of the original vertex v; graphs are re-numbered with
// graph.Relabel.
package label

import (
	"fmt"

	"repro/internal/graph"
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
	// vertices are dealt round-robin across the workers' task ranges
	// (Section 4.3).
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
	// TaskSize is the task range size in vertices (T); required by Striped.
	TaskSize int
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
		return degreeRanks(g)
	case Striped:
		return StripedPermutation(g, p.Workers, p.TaskSize)
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
// degree that writes each vertex's rank instead of the sorted order.
func degreeRanks(g *graph.Graph) []graph.VertexID {
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
	rank := make([]graph.VertexID, n)
	for v := range rank {
		d := g.Degree(v)
		rank[v] = graph.VertexID(start[d])
		start[d]++
	}
	return rank
}

// StripedPermutation implements the striped vertex labeling of Section 4.3.
//
// Vertices are ranked by descending degree. With P workers and task size T,
// the task layout is the one create_tasks produces: task t covers the id
// range [t*T, (t+1)*T) and is assigned to worker t mod P. Rank r is placed
// so that the highest-degree vertices land at the start of each worker's
// first task, the next P vertices at their second positions, and so on:
//
//	round  q = r / (P*T)     — which task of each worker's queue
//	worker w = r mod P
//	offset o = (r mod (P*T)) / P
//	new id   = (q*P + w)*T + o
//
// The tail of the id space (when n is not a multiple of P*T) is filled in
// rank order, which preserves the property that the cheapest vertices come
// last.
func StripedPermutation(g *graph.Graph, workers, taskSize int) []graph.VertexID {
	if workers < 1 {
		panic("label: striped labeling requires workers >= 1")
	}
	if taskSize < 1 {
		panic("label: striped labeling requires taskSize >= 1")
	}
	n := g.NumVertices()
	// Ranks are dealt exactly as the paper describes: position 0 of every
	// worker's q-th task, then position 1, and so on. A full block of P*T
	// ids is the formula above, in 32-bit arithmetic (ids fit, and so do P
	// and P*T once a full block does), whose division is the cheap kind. In
	// the partial final block (n not a multiple of P*T, including n < P*T)
	// the positions past the end of the id space are skipped, so the scheme
	// stays a permutation for any n: with m ids in the block, f = m/T full
	// tasks and one task of rem = m%T ids, the first rem positions each
	// take f+1 ranks and the rest f.
	block := workers * taskSize
	full := n / block * block
	f, rem := (n-full)/taskSize, (n-full)%taskSize
	b, p, t := uint32(block), uint32(workers), uint32(taskSize) // exact where full > 0
	newID := degreeRanks(g)
	for v, r := range newID {
		if int(r) < full {
			j := r % b
			newID[v] = r - j + j%p*t + j/p
			continue
		}
		j := int(r) - full
		var w, off int
		if j < rem*(f+1) {
			off, w = j/(f+1), j%(f+1)
		} else {
			j -= rem * (f + 1)
			off, w = rem+j/f, j%f
		}
		newID[v] = graph.VertexID(full + w*taskSize + off)
	}
	return newID
}
