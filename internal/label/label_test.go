package label

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
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

// TestParseScheme: ParseScheme inverts String on every scheme, and its
// error names the input and every accepted name.
func TestParseScheme(t *testing.T) {
	for _, s := range []Scheme{Identity, Random, DegreeOrdered, Striped} {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	_, err := ParseScheme("bogus")
	if err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	for _, name := range []string{`"bogus"`, "identity", "random", "ordered", "striped"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

func TestAllSchemesArePermutations(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	params := Params{Workers: 4, Seed: 7}
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

// activeCount returns a, the number of vertices with an edge.
func activeCount(g *graph.Graph) int {
	a := 0
	for v := range g.NumVertices() {
		if g.Degree(v) > 0 {
			a++
		}
	}
	return a
}

// kernelStripes is the layout the kernels cut a run on g over workers
// into: the n-vertex stripes clipped at the active count.
func kernelStripes(g *graph.Graph, workers int) sched.Stripes {
	return sched.NewStripes(g.NumVertices(), workers, sched.StripeStride).Clip(activeCount(g))
}

// stripeMass returns the degree mass each stripe of s owns under p.
func stripeMass(g *graph.Graph, p []graph.VertexID, s sched.Stripes) []int64 {
	mass := make([]int64, s.Parts())
	for v, id := range p {
		if int(id) < s.N() {
			mass[s.Owner(int(id))] += int64(g.Degree(v))
		}
	}
	return mass
}

func TestStripedPlacesHubsAtTaskStarts(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(12, 42))
	ranks, _ := degreeRanks(g)
	ranked := inverse(ranks)
	for _, workers := range []int{1, 2, 3} {
		p := StripedPermutation(g, workers)
		s := kernelStripes(g, workers)
		// The r-th ranked vertex opens stripe r: it sits at the stripe's
		// lower border, and every stripe's ids run down in degree from it.
		inv := inverse(p)
		for w := range workers {
			lo, hi := s.Range(w)
			if lo == hi {
				continue
			}
			if int(p[ranked[w]]) != lo {
				t.Errorf("P=%d: rank %d vertex got id %d, want stripe %d's border %d", workers, w, p[ranked[w]], w, lo)
			}
			for id := lo + 1; id < hi; id++ {
				if g.Degree(int(inv[id])) > g.Degree(int(inv[id-1])) {
					t.Fatalf("P=%d: stripe %d rises in degree at id %d", workers, w, id)
				}
			}
		}
		// The isolated vertices follow the stripes, in rank order.
		for id := s.N(); id < g.NumVertices(); id++ {
			if g.Degree(int(inv[id])) != 0 {
				t.Fatalf("P=%d: id %d past the %d active ids has degree %d", workers, id, s.N(), g.Degree(int(inv[id])))
			}
		}
	}
}

func TestStripedVsOrderedSkew(t *testing.T) {
	// With degree-ordered labeling the kernels' first stripe owns nearly
	// all the edges (the Figure 6 pathology); striped labeling must
	// remove that skew.
	g := gen.Kronecker(gen.Graph500Params(13, 42))
	const workers = 2
	s := kernelStripes(g, workers)
	skew := func(p []graph.VertexID) float64 {
		mass := stripeMass(g, p, s)
		return float64(max(mass[0], mass[1])) / float64(max(min(mass[0], mass[1]), 1))
	}
	ordered := skew(Permutation(g, DegreeOrdered, Params{}))
	striped := skew(StripedPermutation(g, workers))
	if ordered < 2 {
		t.Skipf("graph not skewed enough to test (ordered skew %.2f)", ordered)
	}
	if striped > 1.1 {
		t.Errorf("striped labeling left the stripes skewed: ordered %.2f, striped %.2f", ordered, striped)
	}
}

// TestStripedBalancesKernelStripes pins the balance on the benchmark's
// Kronecker graphs (seed 20170321): at 2 workers stripe 0 owns at most
// 52 % of the degree mass, and at 4 and 8 workers the stripes that hold
// active ids are within 10 % of each other.
func TestStripedBalancesKernelStripes(t *testing.T) {
	scales := []int{14, 16, 18}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		g := gen.Kronecker(gen.Graph500Params(scale, 20170321))
		for _, workers := range []int{2, 4, 8} {
			if workers > 2 && scale < 16 {
				continue
			}
			s := kernelStripes(g, workers)
			mass := stripeMass(g, StripedPermutation(g, workers), s)
			var total, lo, hi int64
			lo = mass[0]
			for w, m := range mass {
				if l, h := s.Range(w); l == h {
					continue
				}
				total += m
				lo, hi = min(lo, m), max(hi, m)
			}
			if workers == 2 {
				if share := float64(mass[0]) / float64(total); share > 0.52 {
					t.Errorf("scale %d: stripe 0 owns %.3f of the degree mass %v, want <= 0.52", scale, share, mass)
				}
			} else if r := float64(hi) / float64(lo); r > 1.1 {
				t.Errorf("scale %d, P=%d: stripe mass max/min %.3f %v, want <= 1.1", scale, workers, r, mass)
			}
		}
	}
}

func TestStripedPanicsOnBadParams(t *testing.T) {
	g := testGraph(t)
	for _, w := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StripedPermutation(%d) did not panic", w)
				}
			}()
			StripedPermutation(g, w)
		}()
	}
}

func TestApplyRelabelsGraph(t *testing.T) {
	g := testGraph(t)
	g2, p := Apply(g, Striped, Params{Workers: 4})
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

// Property: striped labeling is a permutation for arbitrary worker counts
// and graph sizes.
func TestQuickStripedIsPermutation(t *testing.T) {
	f := func(rawN, rawW uint16) bool {
		n := int(rawN)%3000 + 1
		w := int(rawW)%7 + 1
		g := gen.Uniform(n, 4, uint64(n*w))
		return isPermutation(StripedPermutation(g, w), n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// dealStriped is the striped labeling as the paper deals it, kept as the
// reference for the closed form: the degree order is materialized, then
// the active ranks are handed round-robin to the stripes of s that still
// have room, each stripe filling upward from its lower border; the
// isolated ranks keep their ranks as ids.
func dealStriped(g *graph.Graph, s sched.Stripes) []graph.VertexID {
	n := g.NumVertices()
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	next := make([]int, s.Parts())
	for p := range next {
		next[p], _ = s.Range(p)
	}
	newID := make([]graph.VertexID, n)
	r := 0
	for r < s.N() {
		for p := range next {
			if _, hi := s.Range(p); next[p] < hi && r < s.N() {
				newID[order[r]] = graph.VertexID(next[p])
				next[p]++
				r++
			}
		}
	}
	for ; r < n; r++ {
		newID[order[r]] = graph.VertexID(r)
	}
	return newID
}

// The closed form deals every rank where the round-robin does: over full
// and partial stripes, empty tail stripes, a below, at and just past a
// stripe length, and strides other than the kernels'.
func TestStripedMatchesDealing(t *testing.T) {
	graphs := []*graph.Graph{testGraph(t), gen.Kronecker(gen.Graph500Params(12, 7))}
	for _, n := range []int{1, 5, 63, 64, 65, 200, 511, 1000} {
		graphs = append(graphs, gen.Uniform(n, 4, uint64(n)))
	}
	for _, g := range graphs {
		n, a := g.NumVertices(), activeCount(g)
		for _, w := range []int{1, 2, 3, 4, 7} {
			for _, stride := range []int{1, 2, 16, 33, 64, sched.StripeStride} {
				s := sched.NewStripes(n, w, stride).Clip(a)
				got, _ := degreeRanks(g)
				want := dealStriped(g, s)
				deal(got, s)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("n=%d a=%d P=%d stride=%d: vertex %d got id %d, dealing gives %d", n, a, w, stride, v, got[v], want[v])
					}
				}
			}
			if got, want := StripedPermutation(g, w), dealStriped(g, kernelStripes(g, w)); !slices.Equal(got, want) {
				t.Fatalf("n=%d P=%d: StripedPermutation differs from the deal over the kernels' stripes", n, w)
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
