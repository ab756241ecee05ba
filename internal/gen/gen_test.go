package gen

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := newRNG(43)
	same := true
	a = newRNG(42)
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := newRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("intn(10) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("intn(0) did not panic")
		}
	}()
	r.intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := newRNG(3)
	p := r.perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v >= 50 || seen[v] {
			t.Fatalf("perm is not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestKroneckerProperties(t *testing.T) {
	p := Graph500Params(10, 1)
	g := Kronecker(p)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 1 << 10
	if g.NumVertices() != n {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), n)
	}
	// Edge factor 16 before dedup; after removing duplicates and
	// self-loops we still expect a dense graph.
	if g.NumEdges() < int64(n) {
		t.Errorf("suspiciously few edges: %d", g.NumEdges())
	}
	if g.NumEdges() > int64(n)*16 {
		t.Errorf("more edges than generated: %d", g.NumEdges())
	}
	// Power-law-ish: the max degree should far exceed the average.
	avg := float64(2*g.NumEdges()) / float64(n)
	if float64(g.MaxDegree()) < 3*avg {
		t.Errorf("max degree %d not skewed vs average %.1f", g.MaxDegree(), avg)
	}
}

// TestRMATAliasExact: every five-level outcome o gets exactly its integer
// mass W[o] of the 2^32 draws — its own cell's slots below the threshold
// plus the slots at and above the threshold of every cell that names it as
// alias — and W[o] is within 1 of its exact target num(o)·2^32/10^10,
// compared as |W[o]·10^10 − num(o)·2^32| < 10^10 in 128-bit integers. A
// threshold one off would change a graph only when a draw lands on it,
// about once in 2^22 draws of that cell, which the golden hashes may not
// reach.
func TestRMATAliasExact(t *testing.T) {
	const slots = 1 << aliasBits
	outcome := patternOutcomes(t)
	var mass [aliasCells]uint64
	for c, cell := range rmatAlias {
		if cell.own != spread5(c) || cell.thresh > slots {
			t.Fatalf("cell %d: own %#x, threshold %d; want own %#x and a threshold ≤ 2^22", c, cell.own, cell.thresh, spread5(c))
		}
		alt, ok := outcome[cell.alt]
		if !ok {
			t.Fatalf("cell %d: alias pattern %#x names no outcome", c, cell.alt)
		}
		mass[c] += cell.thresh
		mass[alt] += slots - cell.thresh
	}
	w := rmatWeights()
	var sum uint64
	for o := range aliasCells {
		sum += w[o]
		if mass[o] != w[o] {
			t.Errorf("outcome %d: the cells give it %d of 2^32 draws, want W = %d", o, mass[o], w[o])
		}
		num := uint64(1)
		for j := range aliasLevels {
			num *= []uint64{57, 19, 19, 5}[o>>(2*j)&3]
		}
		// |W·10^10 − num·2^32|, each side a 128-bit product.
		const denom = 10_000_000_000
		wh, wl := bits.Mul64(w[o], denom)
		th, tl := num>>32, num<<32
		if wh < th || wh == th && wl < tl {
			wh, wl, th, tl = th, tl, wh, wl
		}
		dl, borrow := bits.Sub64(wl, tl, 0)
		if dh, _ := bits.Sub64(wh, th, borrow); dh != 0 || dl >= denom {
			t.Errorf("outcome %d: W = %d is not within 1 of %d·2^32/10^10", o, w[o], num)
		}
	}
	if sum != 1<<32 {
		t.Errorf("the masses sum to %d, want 2^32", sum)
	}
	// One cell's border: x = thresh − 1 picks its own outcome, x = thresh
	// its alias.
	for c, cell := range rmatAlias {
		if cell.thresh == 0 || cell.thresh == slots {
			continue
		}
		r := uint64(c) << aliasBits
		if got := pick(r + cell.thresh - 1); got != cell.own {
			t.Errorf("cell %d, x = thresh − 1: picked %#x, want its own %#x", c, got, cell.own)
		}
		if got := pick(r + cell.thresh); got != cell.alt {
			t.Errorf("cell %d, x = thresh: picked %#x, want its alias %#x", c, got, cell.alt)
		}
		break
	}
}

// patternOutcomes maps each five-level outcome's bit pattern back to the
// outcome, failing t unless every outcome has a pattern of its own.
func patternOutcomes(t *testing.T) map[uint64]int {
	outcome := make(map[uint64]int, aliasCells)
	for o := range aliasCells {
		outcome[spread5(o)] = o
	}
	if len(outcome) != aliasCells {
		t.Fatalf("%d distinct patterns for %d outcomes", len(outcome), aliasCells)
	}
	return outcome
}

// TestRMATEdgeEveryScale: at every scale 0…32, each endpoint rmatEdge
// draws is below 2^scale, the edge reads ⌈⌈scale/5⌉/2⌉ words, and level
// ℓ's bits of u and v are the quadrant that level takes in the five-level
// outcome of the pick holding it — pick ⌊ℓ/5⌋, from the high half of word
// ⌊ℓ/10⌋ when that pick is even and the low half when it is odd. Scales
// 31 and 32 draw 35 levels, where u and v sharing one word would spill.
func TestRMATEdgeEveryScale(t *testing.T) {
	outcome := patternOutcomes(t)
	for scale := 0; scale <= 32; scale++ {
		draws := (scale + aliasLevels - 1) / aliasLevels
		surplus := uint(draws*aliasLevels - scale)
		words := uint64(draws+1) / 2
		for i := range uint64(3000) {
			start := 0x5eed + i*words*splitmixGamma
			next, u, v := rmatEdge(start, draws, surplus)
			if next != start+words*splitmixGamma {
				t.Fatalf("scale %d, edge %d: counter %#x after the edge, want %#x (%d words)", scale, i, next, start+words*splitmixGamma, words)
			}
			if u>>scale != 0 || v>>scale != 0 {
				t.Fatalf("scale %d, edge %d: u = %#x, v = %#x, not below 2^%d", scale, i, u, v, scale)
			}
			for level := range scale {
				d := level / aliasLevels
				w := splitmix(start + uint64(d/2+1)*splitmixGamma)
				r := w >> 32
				if d%2 == 1 {
					r = w & (1<<32 - 1)
				}
				o := outcome[pick(r)]
				q := uint64(o >> (2 * (aliasLevels - 1 - level%aliasLevels)) & 3)
				bit := uint(scale - 1 - level)
				if u>>bit&1 != q>>1 || v>>bit&1 != q&1 {
					t.Fatalf("scale %d, edge %d, level %d: bits (%d, %d), want quadrant %d's", scale, i, level, u>>bit&1, v>>bit&1, q)
				}
			}
		}
	}
}

// TestSplitMixReference: splitmix is SplitMix64's output function, checked
// against the reference implementation's first words from seed 1234567.
func TestSplitMixReference(t *testing.T) {
	ctr := uint64(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821} {
		ctr += splitmixGamma
		if got := splitmix(ctr); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
}

// TestKroneckerEdgeKeyedByIndex: edge i depends on the seed, the scale and
// i only, so the raw endpoint pairs of edge factor 8 are the first 8·n
// pairs of edge factor 16. No state crosses from one edge to the next.
func TestKroneckerEdgeKeyedByIndex(t *testing.T) {
	for _, scale := range []int{0, 1, 9, 12} {
		for _, seed := range []uint64{1, 20170321} {
			n8, p8 := kroneckerPairs(KroneckerParams{Scale: scale, EdgeFactor: 8, Seed: seed})
			n16, p16 := kroneckerPairs(KroneckerParams{Scale: scale, EdgeFactor: 16, Seed: seed})
			if n8 != 1<<scale || n16 != n8 || len(p8) != 16*n8 || len(p16) != 2*len(p8) {
				t.Fatalf("scale %d: %d and %d vertices, %d and %d endpoints", scale, n8, n16, len(p8), len(p16))
			}
			if !slices.Equal(p8, p16[:len(p8)]) {
				t.Errorf("scale %d, seed %d: edge factor 8's pairs are not edge factor 16's first ones", scale, seed)
			}
		}
	}
}

// TestRMATQuadrantShares: at scale 14, each level's quadrant counts over
// 2^18 unscrambled edges lie within 4σ of Graph500's A, B, C, D.
func TestRMATQuadrantShares(t *testing.T) {
	const scale, m = 14, 16 << 14
	perm := make([]graph.VertexID, 1<<scale)
	for i := range perm {
		perm[i] = graph.VertexID(i)
	}
	pairs := make([]graph.VertexID, 2*m)
	rmatEdges(pairs, scale, newRNG(20170321).next(), perm)
	for level := range scale {
		bit := scale - 1 - level
		var counts [4]float64
		for i := 0; i < len(pairs); i += 2 {
			counts[pairs[i]>>bit&1<<1|pairs[i+1]>>bit&1]++
		}
		for q, p := range []float64{0.57, 0.19, 0.19, 0.05} {
			sigma := math.Sqrt(m * p * (1 - p))
			if dev := math.Abs(counts[q] - m*p); dev > 4*sigma {
				t.Errorf("level %d, quadrant %c: %.0f of %d edges, want %.0f ± %.0f (4σ)", level, "ABCD"[q], counts[q], m, m*p, 4*sigma)
			}
		}
	}
}

func TestKroneckerDeterminism(t *testing.T) {
	a := Kronecker(Graph500Params(8, 5))
	b := Kronecker(Graph500Params(8, 5))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < a.NumVertices(); v++ {
		an, bn := a.Neighbors(v), b.Neighbors(v)
		if len(an) != len(bn) {
			t.Fatal("same seed produced different adjacency")
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatal("same seed produced different adjacency")
			}
		}
	}
	c := Kronecker(Graph500Params(8, 6))
	if c.NumEdges() == a.NumEdges() {
		// Not impossible, but with different seeds the neighbor structure
		// should differ somewhere.
		diff := false
		for v := 0; v < a.NumVertices() && !diff; v++ {
			if len(a.Neighbors(v)) != len(c.Neighbors(v)) {
				diff = true
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

// Kronecker rejects parameters it cannot honour with a panic naming the
// argument, before drawing anything; the edges of its range still build.
func TestKroneckerRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		scale, edgeFactor int
		panics            string // "" if the call must succeed
	}{
		{-1, 16, "scale -1"},
		{33, 1, "scale 33"},
		{10, -3, "edge factor -3"},
		{28, 8, "edge factor 8 at scale 28"},
		{32, 1, "edge factor 1 at scale 32"},
		{0, 16, ""},
		{5, 0, ""},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if c.panics == "" && msg != "" {
					t.Errorf("scale %d, edge factor %d: panicked %q", c.scale, c.edgeFactor, msg)
				}
				if c.panics != "" && !strings.Contains(msg, c.panics) {
					t.Errorf("scale %d, edge factor %d: panic %q, want one naming %q", c.scale, c.edgeFactor, msg, c.panics)
				}
			}()
			g := Kronecker(KroneckerParams{Scale: c.scale, EdgeFactor: c.edgeFactor, Seed: 1})
			if g.NumVertices() != 1<<c.scale || g.Validate() != nil {
				t.Errorf("scale %d, edge factor %d: %d vertices, Validate %v", c.scale, c.edgeFactor, g.NumVertices(), g.Validate())
			}
		}()
	}
}

func TestLDBCProperties(t *testing.T) {
	g := LDBC(2000, 5, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	avg := float64(2*g.NumEdges()) / 2000
	if avg < 2 || avg > 12 {
		t.Errorf("average degree %.1f far from target 5", avg)
	}
	// Social structure: a dominant connected component.
	_, sizes := graph.Components(g)
	_, largest := graph.LargestComponent(sizes)
	if float64(largest) < 0.5*2000 {
		t.Errorf("largest component only %d of 2000 vertices", largest)
	}
}

func TestLDBCEmpty(t *testing.T) {
	g := LDBC(0, 5, 1)
	if g.NumVertices() != 0 {
		t.Error("zero persons should give an empty graph")
	}
}

func TestPowerLawProperties(t *testing.T) {
	g := PowerLaw(3000, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	avg := float64(2*g.NumEdges()) / 3000
	// Truncated power law with alpha 2.1, min 2: the hubs must dominate.
	if float64(g.MaxDegree()) < 5*avg {
		t.Errorf("max degree %d vs avg %.1f: not heavy-tailed", g.MaxDegree(), avg)
	}
}

func TestWebProperties(t *testing.T) {
	g := Web(4000, 8, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Locality: most edges should connect nearby ids.
	local, total := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if graph.VertexID(v) < u {
				total++
				if int(u)-v <= webWindow {
					local++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no edges generated")
	}
	if float64(local)/float64(total) < 0.5 {
		t.Errorf("only %d/%d edges are id-local; web stand-in lost locality", local, total)
	}
}

func TestCollaborationProperties(t *testing.T) {
	g := Collaboration(2000, 20, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(2*g.NumEdges()) / 2000
	if avg < 5 {
		t.Errorf("average degree %.1f too low for a collaboration graph", avg)
	}
	// Union of cliques implies many triangles; sample a few wedges.
	triangles, wedges := 0, 0
	for v := 0; v < 200; v++ {
		nbrs := g.Neighbors(v)
		for i := 0; i+1 < len(nbrs) && i < 5; i++ {
			for j := i + 1; j < len(nbrs) && j < 6; j++ {
				wedges++
				if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
					triangles++
				}
			}
		}
	}
	if wedges > 0 && float64(triangles)/float64(wedges) < 0.1 {
		t.Errorf("clustering %d/%d too low for union-of-cliques", triangles, wedges)
	}
}

func TestUniformProperties(t *testing.T) {
	g := Uniform(1000, 10, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(2*g.NumEdges()) / 1000
	if math.Abs(avg-10) > 2 {
		t.Errorf("average degree %.1f, want ~10", avg)
	}
	// No skew: max degree close to average (Poisson tail).
	if g.MaxDegree() > 40 {
		t.Errorf("uniform graph has hub of degree %d", g.MaxDegree())
	}
}

func TestUniformTiny(t *testing.T) {
	if g := Uniform(0, 4, 1); g.NumVertices() != 0 {
		t.Error("Uniform(0) not empty")
	}
	if g := Uniform(1, 4, 1); g.NumEdges() != 0 {
		t.Error("single vertex graph has edges")
	}
}

// A high edge factor, as in the KG0 graph of the iBFS evaluation, gives a
// dense graph.
func TestKroneckerHighEdgeFactorDense(t *testing.T) {
	g := Kronecker(KroneckerParams{Scale: 8, EdgeFactor: 64, Seed: 7})
	avg := float64(2*g.NumEdges()) / float64(g.NumVertices())
	if avg < 16 {
		t.Errorf("KG0-like graph average degree %.1f; want dense", avg)
	}
}
