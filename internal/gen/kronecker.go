package gen

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// KroneckerParams configures the Graph500 Kronecker (R-MAT) generator. The
// quadrant probabilities are Graph500's, (A, B, C, D) = (0.57, 0.19, 0.19,
// 0.05), for every graph.
type KroneckerParams struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the average number of undirected edges per vertex;
	// the Graph500 benchmark uses 16.
	EdgeFactor int
	// Seed makes the generation deterministic.
	Seed uint64
}

// Graph500Params returns the standard Graph500 Kronecker parameters at the
// given scale: edgefactor 16.
func Graph500Params(scale int, seed uint64) KroneckerParams {
	return KroneckerParams{Scale: scale, EdgeFactor: 16, Seed: seed}
}

// Kronecker generates an undirected Kronecker (R-MAT) graph. As in the
// Graph500 reference generator, edge endpoints are independently sampled
// quadrant by quadrant; self-loops and duplicate edges are discarded by the
// CSR builder, and vertex ids are scrambled by a random permutation so that
// vertex id carries no degree information (the labeling schemes under test
// are applied afterwards and must not get the ordering for free).
//
// Edge i is a function of (seed, scale, i) only: it is drawn from its own
// fixed slice of one SplitMix64 stream (rmatEdges), so a larger edge factor
// keeps the smaller one's edges as its first ones. Each 32-bit half of a
// word draws five levels at once from one alias table (pick), so every
// five-level outcome has Graph500's product probability to within 2^-32.
//
// It panics on a scale outside [0, 32] (vertex ids are 32-bit), a negative
// edge factor, or more endpoints than one CSR build addresses
// (graph.MaxEndpoints), naming the argument at fault.
func Kronecker(p KroneckerParams) *graph.Graph {
	return graph.FromPairs(kroneckerPairs(p))
}

// check returns an error naming the argument of p outside Kronecker's
// domain: a scale outside [0, 32] (vertex ids are 32-bit), a negative edge
// factor, or more endpoints than one CSR build addresses (ErrTooManyArcs).
func (p KroneckerParams) check() error {
	if p.Scale < 0 || p.Scale > 32 {
		return fmt.Errorf("Kronecker scale %d outside [0, 32]", p.Scale)
	}
	if p.EdgeFactor < 0 {
		return fmt.Errorf("Kronecker edge factor %d is negative", p.EdgeFactor)
	}
	if n := uint64(1) << p.Scale; uint64(p.EdgeFactor) > graph.MaxEndpoints/2/n {
		return fmt.Errorf("Kronecker edge factor %d at scale %d draws more endpoints than one CSR build addresses: %w",
			p.EdgeFactor, p.Scale, graph.ErrTooManyArcs)
	}
	return nil
}

// kroneckerPairs checks p and returns the vertex count and the scrambled
// endpoint buffer, edge i = {pairs[2i], pairs[2i+1]}: the layout
// graph.FromPairs takes ownership of and builds the CSR from.
func kroneckerPairs(p KroneckerParams) (int, []graph.VertexID) {
	if err := p.check(); err != nil {
		panic("gen: " + err.Error())
	}
	n := 1 << uint(p.Scale)
	// The scrambling permutation comes first from the seeded xorshift128+,
	// then the key of the edges' stream; the edges are mapped through the
	// permutation as they are drawn.
	r := newRNG(p.Seed)
	perm := r.perm(n)
	pairs := make([]graph.VertexID, 2*int64(n)*int64(p.EdgeFactor))
	rmatEdges(pairs, p.Scale, r.next(), perm)
	return n, pairs
}

// rmatEdges fills pairs with R-MAT edges of scale bits each, mapped through
// perm, which has 2^scale entries. Each edge takes D = ⌈scale/5⌉ draws of
// five levels from rmatAlias, two to a SplitMix64 word, and drops the
// surplus low levels of its last draw: edge i reads words i·W … i·W+W-1,
// W = ⌈D/2⌉, of the stream keyed by key (rmatEdge). No draw depends on
// another, so nothing but the stream counter is carried from one edge to
// the next.
func rmatEdges(pairs []graph.VertexID, scale int, key uint64, perm []graph.VertexID) {
	// The first test is implied by the second below scale 64, but it is
	// what lets the compiler prove perm[x&mask] in bounds.
	if len(perm) == 0 || len(perm) != 1<<scale {
		panic("gen: R-MAT permutation is not 2^scale ids long")
	}
	mask := uint64(len(perm) - 1)
	draws := (scale + aliasLevels - 1) / aliasLevels
	surplus := uint(draws*aliasLevels - scale)
	ctr := key
	//bfs:hot R-MAT edges: one rmatEdge call and two permutation reads each, no allocation
	for rest := pairs; len(rest) >= 2; rest = rest[2:] {
		var u, v uint64
		ctr, u, v = rmatEdge(ctr, draws, surplus)
		rest[0] = perm[u&mask]
		rest[1] = perm[v&mask]
	}
}

// rmatEdge draws one edge from the words after counter ctr: draws picks
// of five levels, the first level in the top bits, each 32-bit half one
// pick, high half first. It returns the counter of the edge's last word
// and the endpoints u and v with the surplus low levels of the last pick
// dropped, so that both are below 2^(5·draws − surplus). u and v are kept
// apart: at scale 32 an edge draws 35 levels, which one 64-bit word of u
// above v could not hold.
func rmatEdge(ctr uint64, draws int, surplus uint) (next, u, v uint64) {
	//bfs:hot two picks per SplitMix64 word: no allocation, no bounds check
	for ; draws >= 2; draws -= 2 {
		ctr += splitmixGamma
		w := splitmix(ctr)
		p := pick(w>>32)<<aliasLevels | pick(w&(1<<32-1))
		u, v = u<<(2*aliasLevels)|p>>32, v<<(2*aliasLevels)|p&(1<<32-1)
	}
	if draws != 0 {
		ctr += splitmixGamma
		p := pick(splitmix(ctr) >> 32)
		u, v = u<<aliasLevels|p>>32, v<<aliasLevels|p&(1<<32-1)
	}
	return ctr, u >> surplus, v >> surplus
}

// An alias pick draws five R-MAT levels at once from their product
// distribution, 4^5 outcomes, one cell per outcome. A 32-bit draw r
// selects cell r>>22 and a position x in its 2^22 slots; the cell's own
// outcome fills the slots below its threshold and one other outcome, its
// alias, the rest (Walker 1977, paired as in Vose 1991).
const (
	aliasLevels = 5
	aliasCells  = 1 << (2 * aliasLevels)
	aliasBits   = 32 - 2*aliasLevels // log2 of a cell's slots
)

// aliasCell is one cell of the table: x < thresh picks own, any other x
// alt. Both are bit patterns of an outcome's five levels, u's bits in the
// high 32-bit word and v's in the low one.
type aliasCell struct {
	thresh   uint64
	own, alt uint64
}

// rmatAlias is the table every pick reads: 24 KiB, small enough to stay in
// L1 through a whole generation.
var rmatAlias = newAlias(rmatWeights())

// pick returns the five-level pattern that the 32-bit draw r picks from
// rmatAlias, selecting own or alt with a mask so that nothing branches.
// The index is masked only so that the compiler proves it in bounds.
func pick(r uint64) uint64 {
	c := &rmatAlias[r>>aliasBits&(aliasCells-1)]
	below := (r&(1<<aliasBits-1) - c.thresh) >> 63 // 1 iff x < thresh
	return c.alt ^ (c.own^c.alt)&-below
}

// rmatWeights returns each five-level outcome o's mass in units of 2^-32:
// its exact target num(o)·2^32/10^10, num(o) the product of its five
// levels' quadrant probabilities in hundredths, rounded by largest remainder (ties to the lower o)
// so that the masses sum to 2^32 and each is within 1 of its target.
// num(o) ≤ 57^5 < 2^30, so num(o)·2^32 fits in 64 bits.
func rmatWeights() (w [aliasCells]uint64) {
	const denom = 100 * 100 * 100 * 100 * 100
	var rem [aliasCells]uint64
	order := make([]int, aliasCells)
	var sum uint64
	for o := range w {
		num := uint64(1)
		for j := range aliasLevels {
			num *= [4]uint64{57, 19, 19, 5}[o>>(2*j)&3]
		}
		w[o], rem[o] = num<<32/denom, num<<32%denom
		sum += w[o]
		order[o] = o
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rem[b], rem[a]) })
	for _, o := range order[:1<<32-sum] {
		w[o]++
	}
	return w
}

// newAlias pairs the cells of the masses w, which sum to 2^32, in a fixed
// order: the last cell still short of 2^22 slots takes the rest of its
// slots from the last cell not yet short, until no cell is short. The
// integer masses make the pairing exact: every cell ends with 2^22.
func newAlias(w [aliasCells]uint64) (t [aliasCells]aliasCell) {
	const slots = 1 << aliasBits
	var small, large []int
	for o, m := range w {
		t[o] = aliasCell{thresh: slots, own: spread5(o), alt: spread5(o)}
		if m < slots {
			small = append(small, o)
		} else if m > slots {
			large = append(large, o)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		t[s].thresh, t[s].alt = w[s], spread5(l)
		if w[l] -= slots - w[s]; w[l] < slots {
			large, small = large[:len(large)-1], append(small, l)
		}
	}
	return t
}

// spread5 returns outcome o's bit pattern: its five quadrants, the first
// level in o's top bits, each give u the quadrant's high bit and v its low
// bit, u's five bits in the high 32-bit word and v's in the low one.
func spread5(o int) uint64 {
	var u, v uint64
	for j := aliasLevels - 1; j >= 0; j-- {
		q := uint64(o >> (2 * j) & 3)
		u, v = u<<1|q>>1, v<<1|q&1
	}
	return u<<32 | v
}
