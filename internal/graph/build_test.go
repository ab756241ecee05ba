package graph

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.Adjacency) != len(b.Adjacency) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Adjacency {
		if a.Adjacency[i] != b.Adjacency[i] {
			return false
		}
	}
	return true
}

// referenceBuild is the naive CSR construction the sort-free FromEdges is
// held to: a set per vertex, each row sorted.
func referenceBuild(n int, edges []Edge) *Graph {
	rows := make([]map[VertexID]bool, n)
	add := func(u, v VertexID) {
		if rows[u] == nil {
			rows[u] = map[VertexID]bool{}
		}
		rows[u][v] = true
	}
	for _, e := range edges {
		if e.U != e.V {
			add(e.U, e.V)
			add(e.V, e.U)
		}
	}
	g := &Graph{Offsets: make([]uint32, n+1), Adjacency: []VertexID{}}
	for v, set := range rows {
		row := make([]VertexID, 0, len(set))
		for u := range set {
			row = append(row, u)
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		g.Adjacency = append(g.Adjacency, row...)
		g.Offsets[v+1] = uint32(len(g.Adjacency))
	}
	return g
}

// checkBuild builds edges and holds the result to Validate and the
// reference. The input must come back untouched: FromEdges only reads it.
// The consuming front end, FromPairs over the same edges flattened, must
// produce the same Offsets and Adjacency byte for byte: inside the buffer
// it was handed exactly when the input holds no loop and no duplicate (the
// reference keeps every edge), and in an array of its own otherwise, so a
// built graph keeps only its arcs. Either way the adjacency has no spare
// capacity.
func checkBuild(t testing.TB, n int, edges []Edge) *Graph {
	t.Helper()
	in := append([]Edge(nil), edges...)
	g := FromEdges(n, edges)
	pairs := make([]VertexID, 0, 2*len(edges))
	for _, e := range edges {
		pairs = append(pairs, e.U, e.V)
	}
	p := FromPairs(n, pairs)
	if !graphsEqual(p, g) {
		t.Fatalf("n=%d, %d edges: FromPairs differs from FromEdges", n, len(edges))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("n=%d, %d edges: %v", n, len(edges), err)
	}
	ref := referenceBuild(n, edges)
	if !graphsEqual(g, ref) {
		t.Fatalf("n=%d, %d edges: build differs from the reference", n, len(edges))
	}
	dropped := ref.NumEdges() < int64(len(edges))
	if len(p.Adjacency) > 0 {
		if inside := &p.Adjacency[0] == &pairs[0]; inside == dropped {
			t.Fatalf("n=%d, %d edges (loops or duplicates dropped: %v): FromPairs built inside its endpoint buffer: %v",
				n, len(edges), dropped, inside)
		}
	}
	for name, adj := range map[string][]VertexID{"FromEdges": g.Adjacency, "FromPairs": p.Adjacency} {
		if cap(adj) != len(adj) {
			t.Fatalf("n=%d, %d edges: %s adjacency has capacity %d for length %d", n, len(edges), name, cap(adj), len(adj))
		}
	}
	for i := range in {
		if in[i] != edges[i] {
			t.Fatalf("n=%d: FromEdges modified its input at %d", n, i)
		}
	}
	return g
}

// randomEdges produces a deterministic pseudo-random edge multiset (both
// orientations, self-loops and duplicates included) without pulling in the
// generator package.
func randomEdges(n, m int, seed uint64) []Edge {
	s := seed
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: VertexID(next() % uint64(n)), V: VertexID(next() % uint64(n))}
	}
	return edges
}

// buildCase is one input of the construction grid; m < 0 leaves the edge
// count to the reference.
type buildCase struct {
	name  string
	n     int
	edges []Edge
	m     int64
}

// buildGrid is the shared grid of construction inputs: the degenerate
// sizes, self-loops and duplicates, hubs, random multigraphs, and the edges
// of FromPairs' two-pass grouping — fewer vertices than one block
// (1<<blockBits), a count that is no multiple of it, a hub whose bucket
// holds more records than a block has vertices — and an input without
// loops or duplicates, whose CSR fills the endpoint buffer exactly: the
// one non-empty row FromPairs builds inside its buffer.
func buildGrid() []buildCase {
	hub := []Edge{}
	for i := 1; i < 10000; i++ {
		hub = append(hub, Edge{0, VertexID(i)}, Edge{VertexID(i), VertexID((i * 7) % 10000)})
	}
	dup := []Edge{}
	for i := 0; i < 500; i++ {
		dup = append(dup, Edge{1, 2}, Edge{2, 1}, Edge{3, 1}, Edge{2, 2})
	}
	// Vertex 1500, in the second block, joined to every other vertex (both
	// orientations, half of them twice) and to nothing else.
	midHub := []Edge{}
	for i := 0; i < 4*block; i++ {
		if i != 1500 {
			midHub = append(midHub, Edge{1500, VertexID(i)})
		}
		if i%2 == 0 {
			midHub = append(midHub, Edge{VertexID(i), 1500})
		}
	}
	// A ring with chords of span 7: 2n distinct edges in both orientations.
	const ringN = 3000
	ring := []Edge{}
	for i := 0; i < ringN; i++ {
		ring = append(ring, Edge{VertexID(i), VertexID((i + 1) % ringN)}, Edge{VertexID((i + 7) % ringN), VertexID(i)})
	}
	return []buildCase{
		{"empty n=0", 0, nil, 0},
		{"edgeless n=5", 5, nil, 0},
		{"n=1 edgeless", 1, nil, 0},
		{"n=1 self-loops", 1, []Edge{{0, 0}, {0, 0}}, 0},
		{"all self-loops", 4, []Edge{{0, 0}, {1, 1}, {3, 3}, {1, 1}}, 0},
		{"small mixed", 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 1}, {2, 1}}, 5},
		{"heavy duplicates", 4, dup, 2},
		{"large skewed", 10000, hub, -1},
		{"random", 5000, randomEdges(5000, 40000, 0x9e3779b97f4a7c15), -1},
		{"random below one block", block - 300, randomEdges(block-300, 6000, 0x2545f4914f6cdd1d), -1},
		{"random, blocks plus a part", 2*block + 37, randomEdges(2*block+37, 20000, 7), -1},
		{"hub bucket past a block", 4 * block, midHub, 4*block - 1},
		{"no loops or duplicates", ringN, ring, 2 * ringN},
	}
}

// block is the number of vertices in one block of FromPairs' grouping.
const block = 1 << blockBits

func TestBuildMatchesReference(t *testing.T) {
	for _, tc := range buildGrid() {
		g := checkBuild(t, tc.n, tc.edges)
		if g.NumVertices() != tc.n || (tc.m >= 0 && g.NumEdges() != tc.m) {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", tc.name, g.NumVertices(), g.NumEdges(), tc.n, tc.m)
		}
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	for name, build := range map[string]func(){
		"FromEdges with an out-of-range endpoint": func() { FromEdges(2, []Edge{{0, 1}, {2, 0}}) },
		"FromEdges with an endpoint at n":         func() { FromEdges(2, []Edge{{0, 2}}) },
		"FromPairs with an out-of-range endpoint": func() { FromPairs(2, []VertexID{0, 1, 2, 0}) },
		"FromPairs with half an edge":             func() { FromPairs(2, []VertexID{0, 1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestBuildConcurrentIndependent runs several builds at the same time (as
// concurrent compactions of different dynamic graphs do); under -race this
// proves a build touches nothing but its own arrays and its read-only
// input, which two of the builds share.
func TestBuildConcurrentIndependent(t *testing.T) {
	const n, m, builds = 2000, 12000, 4
	inputs := make([][]Edge, builds)
	for i := range inputs {
		inputs[i] = randomEdges(n, m, uint64(i/2+1)*0x2545f4914f6cdd1d)
	}
	inputs[1] = inputs[0]
	results := make([]*Graph, builds)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = FromEdges(n, inputs[i])
		}(i)
	}
	wg.Wait()
	for i, g := range results {
		if !graphsEqual(g, referenceBuild(n, inputs[i])) {
			t.Errorf("build %d: concurrent build differs from the reference", i)
		}
	}
}

// FuzzBuild: any byte string read as an edge list over at most 64 vertex
// ids, packed or spread over several blocks, builds to exactly the
// reference graph.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 1, 1, 0, 1, 1, 2, 1})
	f.Add([]byte{7, 200, 200, 7, 7, 200, 3})
	// A first byte of 128 or more spreads the ids over three blocks of the
	// grouping.
	f.Add([]byte{130, 0, 1, 1, 2, 2, 0, 2, 1, 1, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkBuild(t, 0, nil)
			return
		}
		ids, stride := int(data[0])%64+1, 1
		if data[0] >= 128 {
			stride = 3*block/ids + 1
		}
		var edges []Edge
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%ids, int(data[i+1])%ids
			edges = append(edges, Edge{VertexID(u * stride), VertexID(v * stride)})
		}
		checkBuild(t, ids*stride, edges)
	})
}

// Property: relabeling by a random permutation equals building the mapped
// edge list from scratch, and relabeling back by the inverse restores the
// graph exactly.
func TestQuickRelabelRoundTrip(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawM uint16) bool {
		n := int(rawN) + 1
		edges := randomEdges(n, int(rawM)%2000, seed|1)
		g := FromEdges(n, edges)

		perm := make([]VertexID, n)
		for i := range perm {
			perm[i] = VertexID(i)
		}
		x := seed
		for i := n - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int((x >> 33) % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		mapped := make([]Edge, len(edges))
		for i, e := range edges {
			mapped[i] = Edge{perm[e.U], perm[e.V]}
		}

		g2 := Relabel(g, perm)
		return g2.Validate() == nil &&
			graphsEqual(g2, referenceBuild(n, mapped)) &&
			graphsEqual(Relabel(g2, inverse(perm)), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
