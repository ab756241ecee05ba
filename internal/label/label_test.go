package label

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Kronecker(gen.Graph500Params(9, 42))
}

func isPermutation(p []graph.VertexID, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, id := range p {
		if int(id) >= n || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// inverse returns the inverse of the permutation p: inv[p[v]] = v.
func inverse(p []graph.VertexID) []graph.VertexID {
	inv := make([]graph.VertexID, len(p))
	for v, id := range p {
		inv[id] = graph.VertexID(v)
	}
	return inv
}

func TestSchemeString(t *testing.T) {
	cases := map[Scheme]string{
		Identity:      "identity",
		Random:        "random",
		DegreeOrdered: "ordered",
		Striped:       "striped",
		Scheme(99):    "scheme(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestAllSchemesArePermutations(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	params := Params{Workers: 4, TaskSize: 64, Seed: 7}
	for _, s := range []Scheme{Identity, Random, DegreeOrdered, Striped} {
		p := Permutation(g, s, params)
		if !isPermutation(p, n) {
			t.Errorf("%v labeling is not a permutation", s)
		}
	}
}

func TestIdentity(t *testing.T) {
	g := testGraph(t)
	p := Permutation(g, Identity, Params{})
	for v, id := range p {
		if int(id) != v {
			t.Fatal("identity permutation moved a vertex")
		}
	}
}

func TestRandomSeedStability(t *testing.T) {
	g := testGraph(t)
	a := Permutation(g, Random, Params{Seed: 5})
	b := Permutation(g, Random, Params{Seed: 5})
	c := Permutation(g, Random, Params{Seed: 6})
	diffC := false
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed gave different random labelings")
		}
		if a[v] != c[v] {
			diffC = true
		}
	}
	if !diffC {
		t.Error("different seeds gave identical labelings")
	}
}

func TestDegreeOrdered(t *testing.T) {
	g := testGraph(t)
	p := Permutation(g, DegreeOrdered, Params{})
	inv := inverse(p)
	// New id order must be non-increasing in degree.
	for id := 1; id < len(inv); id++ {
		if g.Degree(int(inv[id-1])) < g.Degree(int(inv[id])) {
			t.Fatalf("degree order violated at id %d", id)
		}
	}
}

func TestStripedPlacesHubsAtTaskStarts(t *testing.T) {
	g := testGraph(t)
	const workers, taskSize = 4, 32
	p := StripedPermutation(g, workers, taskSize)
	inv := inverse(p)

	// The r-th ranked vertex by degree (r < workers) must sit at the start
	// of task r, i.e. new id r*taskSize.
	ranked := inverse(degreeRanks(g))
	for w := 0; w < workers; w++ {
		wantID := w * taskSize
		if int(p[ranked[w]]) != wantID {
			t.Errorf("rank %d vertex got id %d, want %d", w, p[ranked[w]], wantID)
		}
	}

	// Worker queue cost balance: sum the degrees assigned to each worker's
	// tasks; with striping they should be within a small factor.
	n := g.NumVertices()
	cost := make([]int64, workers)
	for id := 0; id < n; id++ {
		task := id / taskSize
		w := task % workers
		cost[w] += int64(g.Degree(int(inv[id])))
	}
	min, max := cost[0], cost[0]
	for _, c := range cost[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.5 {
		t.Errorf("striped labeling worker costs unbalanced: %v", cost)
	}
}

func TestStripedVsOrderedSkew(t *testing.T) {
	// With degree-ordered labeling and static partitioning, the first
	// worker gets nearly all the edges (the Figure 6 pathology); striped
	// labeling must remove that skew.
	g := testGraph(t)
	const workers, taskSize = 8, 64
	n := g.NumVertices()

	skew := func(p []graph.VertexID) float64 {
		inv := inverse(p)
		per := (n + workers - 1) / workers
		cost := make([]int64, workers)
		for id := 0; id < n; id++ {
			cost[id/per] += int64(g.Degree(int(inv[id])))
		}
		min, max := cost[0], cost[0]
		for _, c := range cost[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			min = 1
		}
		return float64(max) / float64(min)
	}

	ordered := skew(Permutation(g, DegreeOrdered, Params{}))
	striped := skew(StripedPermutation(g, workers, taskSize))
	if ordered < 2 {
		t.Skipf("graph not skewed enough to test (ordered skew %.2f)", ordered)
	}
	if striped > ordered/2 {
		t.Errorf("striped labeling did not reduce static-partition skew: ordered %.2f, striped %.2f", ordered, striped)
	}
}

func TestStripedPanicsOnBadParams(t *testing.T) {
	g := testGraph(t)
	for _, c := range []struct{ w, ts int }{{0, 64}, {4, 0}, {-1, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StripedPermutation(%d, %d) did not panic", c.w, c.ts)
				}
			}()
			StripedPermutation(g, c.w, c.ts)
		}()
	}
}

func TestApplyRelabelsGraph(t *testing.T) {
	g := testGraph(t)
	g2, p := Apply(g, Striped, Params{Workers: 4, TaskSize: 64})
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("relabeling changed edge count")
	}
	// Degree of original v must equal degree of p[v] in g2.
	for v := 0; v < g.NumVertices(); v += 17 {
		if g.Degree(v) != g2.Degree(int(p[v])) {
			t.Fatalf("degree mismatch for vertex %d", v)
		}
	}
}

// Property: striped labeling is a permutation for arbitrary worker/task
// parameters and graph sizes.
func TestQuickStripedIsPermutation(t *testing.T) {
	f := func(rawN, rawW, rawT uint8) bool {
		n := int(rawN)%500 + 1
		w := int(rawW)%7 + 1
		ts := int(rawT)%33 + 1
		g := gen.Uniform(n, 4, uint64(n*w+ts))
		p := StripedPermutation(g, w, ts)
		return isPermutation(p, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// dealStriped is the striped labeling as the paper deals it, kept as the
// reference for the closed form: the degree order is materialized, then
// every task's position 0 is handed out, then every position 1, skipping
// ids past the end of the id space.
func dealStriped(g *graph.Graph, workers, taskSize int) []graph.VertexID {
	n := g.NumVertices()
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	newID := make([]graph.VertexID, n)
	r := 0
	for taskOrd := 0; r < n; taskOrd++ {
		for off := 0; off < taskSize && r < n; off++ {
			for w := 0; w < workers && r < n; w++ {
				if id := (taskOrd*workers+w)*taskSize + off; id < n {
					newID[order[r]] = graph.VertexID(id)
					r++
				}
			}
		}
	}
	return newID
}

// The closed form deals every rank where the paper's loop does, over full
// and partial final blocks, n below, at and just past P*T, and one task.
func TestStripedMatchesDealing(t *testing.T) {
	graphs := []*graph.Graph{testGraph(t)}
	for _, n := range []int{1, 5, 63, 64, 65, 200, 511, 1000} {
		graphs = append(graphs, gen.Uniform(n, 4, uint64(n)))
	}
	for _, g := range graphs {
		for _, w := range []int{1, 2, 3, 4, 7} {
			for _, ts := range []int{1, 2, 16, 33, 64} {
				got, want := StripedPermutation(g, w, ts), dealStriped(g, w, ts)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("n=%d P=%d T=%d: vertex %d got id %d, dealing gives %d", g.NumVertices(), w, ts, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestPermutationUnknownSchemePanics(t *testing.T) {
	g := testGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown scheme did not panic")
		}
	}()
	Permutation(g, Scheme(12), Params{})
}
