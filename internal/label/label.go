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
		return degreeOrderedPermutation(g)
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

// ranksByDegree returns vertex ids sorted by descending degree, breaking
// ties by ascending vertex id for determinism (a counting sort on degree).
func ranksByDegree(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	// start[d] is the rank of the first vertex of degree d: the number of
	// vertices with a larger degree.
	start := make([]int, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		start[g.Degree(v)]++
	}
	for d, higher := len(start)-1, 0; d >= 0; d-- {
		start[d], higher = higher, higher+start[d]
	}
	order := make([]graph.VertexID, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		order[start[d]] = graph.VertexID(v)
		start[d]++
	}
	return order
}

func degreeOrderedPermutation(g *graph.Graph) []graph.VertexID {
	order := ranksByDegree(g)
	newID := make([]graph.VertexID, len(order))
	for rank, v := range order {
		newID[v] = graph.VertexID(rank)
	}
	return newID
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
	order := ranksByDegree(g)
	newID := make([]graph.VertexID, n)

	// Deal ranks exactly as the paper describes: position 0 of every
	// worker's q-th task, then position 1, and so on. Triples that fall
	// beyond the end of the id space (partial final block) are skipped, so
	// the scheme stays a permutation for any n, including n < P*T.
	r := 0
	for taskOrd := 0; r < n; taskOrd++ {
		for off := 0; off < taskSize && r < n; off++ {
			for w := 0; w < workers && r < n; w++ {
				id := (taskOrd*workers+w)*taskSize + off
				if id >= n {
					continue
				}
				newID[order[r]] = graph.VertexID(id)
				r++
			}
		}
	}
	return newID
}
