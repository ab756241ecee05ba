package graph

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// spareCap is the capacity of the buffer the arc recycler holds, -1 if it
// holds none. It keeps no reference to the buffer.
func spareCap() int {
	spareArcs.Lock()
	defer spareArcs.Unlock()
	if p := spareArcs.buf.Value(); p != nil {
		return cap(*p)
	}
	return -1
}

// noGC switches the collector off for a test that asserts a recycler hit:
// the recycler's reference is weak, so a cycle between Put and Get is a
// legitimate miss.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// clone copies g into storage of its own, to compare g against later.
func clone(g *Graph) *Graph {
	return &Graph{Offsets: append([]int64(nil), g.Offsets...), Adjacency: append([]VertexID(nil), g.Adjacency...)}
}

func reversed(n int) []VertexID {
	perm := make([]VertexID, n)
	for i := range perm {
		perm[i] = VertexID(n - 1 - i)
	}
	return perm
}

// A build leaves its transpose scratch in the recycler, and two forced GC
// cycles (one suffices) leave the recycler empty: it keeps nothing alive.
func TestRecyclerHoldsNothingAcrossGC(t *testing.T) {
	noGC(t)
	g := FromEdges(500, randomEdges(500, 4000, 1))
	if got, min := spareCap(), len(g.Adjacency); got < min {
		t.Fatalf("after a build the recycler holds %d arcs, want at least the graph's %d", got, min)
	}
	runtime.GC()
	runtime.GC()
	if got := spareCap(); got != -1 {
		t.Fatalf("after two GC cycles the recycler still holds a %d-arc buffer", got)
	}
	if g2 := Relabel(g, reversed(500)); g2.Validate() != nil || !graphsEqual(Relabel(g2, reversed(500)), g) {
		t.Fatal("relabel on an emptied recycler is wrong")
	}
}

// The relabel that follows a build on the same goroutine gets the build's
// scratch: FromPairs' own endpoint buffer, FromEdges' second arc array.
func TestRelabelTakesBuildScratch(t *testing.T) {
	noGC(t)
	const n = 300
	edges := randomEdges(n, 3000, 2)
	pairs := make([]VertexID, 0, 2*len(edges))
	for _, e := range edges {
		pairs = append(pairs, e.U, e.V)
	}
	first := &pairs[0]
	g := FromPairs(n, pairs)
	r := Relabel(g, reversed(n))
	if &r.Adjacency[0] != first {
		t.Error("Relabel after FromPairs did not reuse the endpoint buffer")
	}
	if spareCap() != -1 {
		t.Error("a recycled buffer was handed out and is still in the recycler")
	}
	if again := Relabel(g, reversed(n)); &again.Adjacency[0] == first {
		t.Error("a second Relabel got the buffer the first one returned")
	}

	g = FromEdges(n, edges)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = Relabel(g, reversed(n))
	runtime.ReadMemStats(&after)
	// inv and offsets (12 bytes a vertex), no arc array.
	if got, arcs := int(after.TotalAlloc-before.TotalAlloc), 4*len(r.Adjacency); got >= arcs {
		t.Errorf("Relabel after FromEdges allocated %d bytes; an arc array alone is %d", got, arcs)
	}
}

// A recycled buffer is indistinguishable from a fresh one: the input of a
// relabel is untouched, two relabels of one graph share no storage, and no
// returned adjacency has spare capacity another append could grow into.
func TestRelabelAliasing(t *testing.T) {
	noGC(t)
	const n = 200
	g0 := checkBuild(t, n, randomEdges(n, 2500, 3)) // ends with a FromPairs, so the recycler is loaded
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

// A buffer more than a quarter larger than asked for stays where it is: a
// graph must not keep much more than its own size alive.
func TestRecyclerRejectsOversizedBuffer(t *testing.T) {
	noGC(t)
	small := path(5)
	big := FromEdges(400, randomEdges(400, 5000, 4))
	held := spareCap()
	r := Relabel(small, reversed(5))
	if cap(r.Adjacency) != len(small.Adjacency) {
		t.Errorf("relabel of %d arcs sits on a %d-arc array", len(small.Adjacency), cap(r.Adjacency))
	}
	if spareCap() != held {
		t.Errorf("the unfit buffer left the recycler: holds %d, held %d", spareCap(), held)
	}
	if r := Relabel(big, reversed(400)); r.Validate() != nil {
		t.Fatal(r.Validate())
	}
	if spareCap() != -1 {
		t.Error("the fitting relabel did not take the buffer")
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
		"overflow past the end": {&Graph{Offsets: []int64{0, 1, 1, 1}, Adjacency: []VertexID{1}}, "index out of range"},
		// 1 → 0 only: row 0 (degree 0) takes the arc, row 1 (degree 1) gets none.
		"overflow into the next row": {&Graph{Offsets: []int64{0, 0, 1, 1}, Adjacency: []VertexID{0}}, "asymmetric graph: new row 0 "},
		// 0 → 2 and 2 → 1: every write lands inside the array, row 0 gets none.
		"underfull row": {&Graph{Offsets: []int64{0, 1, 1, 2}, Adjacency: []VertexID{2, 1}}, "asymmetric graph: new row 0 "},
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
	cycle := &Graph{Offsets: []int64{0, 1, 2, 3}, Adjacency: []VertexID{1, 2, 0}}
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
// the edges loads the recycler with a buffer that is usually too small.
func FuzzRelabel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2})
	// Six copies of each edge: the build's scratch is six times what the
	// relabel needs and is turned down.
	f.Add([]byte{4, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 2, 3, 3, 2, 2, 3, 2, 3})
	// One duplicate: scratch larger than the relabel needs, and taken.
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 1, 0})
	// No duplicates: the prefix build's scratch is smaller than the way back needs.
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
		back := Relabel(there, InversePermutation(perm))
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
