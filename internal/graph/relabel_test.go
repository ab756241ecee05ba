package graph

import (
	"fmt"
	"strings"
	"testing"
)

// clone copies g into storage of its own, to compare g against later.
func clone(g *Graph) *Graph {
	return &Graph{Offsets: append([]uint32(nil), g.Offsets...), Adjacency: append([]VertexID(nil), g.Adjacency...)}
}

func reversed(n int) []VertexID {
	perm := make([]VertexID, n)
	for i := range perm {
		perm[i] = VertexID(n - 1 - i)
	}
	return perm
}

// The input of a relabel is untouched, two relabels of one graph share no
// storage, and no returned adjacency — the built one, a prefix of its
// endpoint buffer, included — has spare capacity another append could grow
// into.
func TestRelabelAliasing(t *testing.T) {
	const n = 200
	g0 := checkBuild(t, n, randomEdges(n, 2500, 3))
	want := clone(g0)
	a := Relabel(g0, reversed(n))
	b := Relabel(g0, reversed(n))
	if !graphsEqual(g0, want) {
		t.Fatal("Relabel modified its input")
	}
	if !graphsEqual(a, b) || a.Validate() != nil {
		t.Fatal("two relabels of one graph differ")
	}
	for name, g := range map[string]*Graph{"built": g0, "first relabel": a, "second relabel": b} {
		if cap(g.Adjacency) != len(g.Adjacency) {
			t.Errorf("%s: adjacency has capacity %d for length %d", name, cap(g.Adjacency), len(g.Adjacency))
		}
	}
	for i := range a.Adjacency {
		a.Adjacency[i] = ^a.Adjacency[i]
	}
	if !graphsEqual(g0, want) || !graphsEqual(b, Relabel(g0, reversed(n))) {
		t.Fatal("writing through one relabel's adjacency reached another graph")
	}
}

// An asymmetric CSR is not a graph this package builds; Relabel must say so
// rather than return rows with cells it never wrote.
func TestRelabelRejectsAsymmetric(t *testing.T) {
	id := []VertexID{0, 1, 2}
	for name, c := range map[string]struct {
		g    *Graph
		want string
	}{
		// 0 → 1 only: row 1 has degree 0 and is sent an arc past the array's
		// end, where the runtime's bounds check stops the fill.
		"overflow past the end": {&Graph{Offsets: []uint32{0, 1, 1, 1}, Adjacency: []VertexID{1}}, "index out of range"},
		// 1 → 0 only: row 0 (degree 0) takes the arc, row 1 (degree 1) gets none.
		"overflow into the next row": {&Graph{Offsets: []uint32{0, 0, 1, 1}, Adjacency: []VertexID{0}}, "asymmetric graph: new row 0 "},
		// 0 → 2 and 2 → 1: every write lands inside the array, row 0 gets none.
		"underfull row": {&Graph{Offsets: []uint32{0, 1, 1, 2}, Adjacency: []VertexID{2, 1}}, "asymmetric graph: new row 0 "},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one containing %q", name, msg, c.want)
				}
			}()
			Relabel(c.g, id)
		}()
	}
}

// Relabel detects asymmetry only through the degrees: a directed 3-cycle
// has in-degree = out-degree everywhere and comes back as its transpose.
// Validate is what rejects it.
func TestRelabelOfBalancedAsymmetricIsTranspose(t *testing.T) {
	cycle := &Graph{Offsets: []uint32{0, 1, 2, 3}, Adjacency: []VertexID{1, 2, 0}}
	if cycle.Validate() == nil {
		t.Fatal("Validate accepts a directed cycle")
	}
	got := Relabel(cycle, []VertexID{0, 1, 2})
	if want := []VertexID{2, 0, 1}; fmt.Sprint(got.Adjacency) != fmt.Sprint(want) {
		t.Errorf("identity relabel of 0→1→2→0 has adjacency %v, want the transpose %v", got.Adjacency, want)
	}
}

// FuzzRelabel: a graph built from fuzzed edges, relabeled by a permutation
// derived from the input and back by its inverse, is the original again and
// was never written to. Between the two relabels a build over a prefix of
// the edges runs in a buffer of its own.
func FuzzRelabel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2})
	// Six copies of each edge: the build's buffer is six times its graph.
	f.Add([]byte{4, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 2, 3, 3, 2, 2, 3, 2, 3})
	// One duplicate: the graph fills all but one edge of the buffer.
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 1, 0})
	// No duplicates: the graph fills the buffer exactly.
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		n := int(data[0])%64 + 1
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{VertexID(int(data[i]) % n), VertexID(int(data[i+1]) % n)})
		}
		perm := make([]VertexID, n)
		for i := range perm {
			perm[i] = VertexID(i)
		}
		for i, b := range data {
			j, k := i%n, int(b)%n
			perm[j], perm[k] = perm[k], perm[j]
		}

		g := FromEdges(n, edges)
		want := clone(g)
		there := Relabel(g, perm)
		if err := there.Validate(); err != nil {
			t.Fatalf("relabeled graph: %v", err)
		}
		FromEdges(n, edges[:len(edges)/2])
		back := Relabel(there, inverse(perm))
		if !graphsEqual(back, want) {
			t.Fatal("relabeling there and back changed the graph")
		}
		if !graphsEqual(g, want) {
			t.Fatal("Relabel wrote to its input")
		}
		for _, r := range []*Graph{g, there, back} {
			if cap(r.Adjacency) != len(r.Adjacency) {
				t.Fatalf("adjacency with capacity %d for length %d", cap(r.Adjacency), len(r.Adjacency))
			}
		}
	})
}

// inverse returns the inverse of the permutation p: inv[p[v]] = v.
func inverse(p []VertexID) []VertexID {
	inv := make([]VertexID, len(p))
	for v, id := range p {
		inv[id] = VertexID(v)
	}
	return inv
}
