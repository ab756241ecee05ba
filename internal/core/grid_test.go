package core_test

// The oracle grid. The paper claims MS-PBFS and SMS-PBFS return the
// textbook BFS distances under every state representation (Section 3.2),
// direction (Listings 1-4) and labeling (Section 4.3); the baselines make
// the same claim for themselves. The grid holds every one of them, reached
// through its layer's exported constructor (the core kernels, the root
// facade, a sharded cluster), to one answer: ReferenceBFS on the graph as
// generated. A cell is one value per axis of the table below. It passes
// when
//   - every level row, mapped back through the labeling, equals the
//     reference row (cut at MaxDepth), or with record=nolevels no row is
//     recorded,
//   - the visited-state total equals the reference's, and
//   - where the kernel takes a visitor (MS-PBFS, through every layer), the
//     visitor is called for each reached (source, vertex) exactly once, at
//     its level.
//
// Without -short the grid runs its named slices, each a union of products
// over the axes; with -short it runs the pairwise cover instead: a seeded,
// deterministic set of cells in which every two values of every two axes
// that some kernel reads together meet at least once, plus the cells of
// shortPins (`-short -run TestGridMatchesOracle/pairs` reruns it).
//
// A new axis is one entry in dims (its first value is the default every
// existing slice keeps) plus its decoding in cell.options; a new kernel or
// layer is one impl row.

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
)

// The axes, in cell-name order.
const (
	dKernel = iota
	dLayer
	dRepr
	dLabel
	dDir
	dWorkers
	dSplit
	dWords
	dExit
	dSteal
	dDepth
	dView
	dVisit
	dRecord
	dPlace
	dShape
	numDims
)

type axis struct {
	name   string
	values []string
}

// dims names each axis and its values. The first value is the default: a
// slice that does not name the axis runs it, and so does every cell whose
// kernel and layer do not read the axis. Value names are unique across
// axes, so `-run 'TestGridMatchesOracle/.*/.*,overlay,'` selects by value.
var dims = [numDims]axis{
	dKernel:  {"kernel", []string{"mspbfs", "smspbfs", "smspbfs-all", "mspbfs-socket", "msbfs", "msbfs-direct", "msbfs-core", "ibfs", "beamer-gapbs", "beamer-sparse", "beamer-dense"}},
	dLayer:   {"layer", []string{"core", "root", "shards2", "shards3"}},
	dRepr:    {"repr", []string{"bit", "byte"}},
	dLabel:   {"label", []string{"identity", "random", "degree", "striped"}},
	dDir:     {"dir", []string{"auto", "topdown", "bottomup"}},
	dWorkers: {"workers", []string{"w1", "w2", "w3", "w4", "w8"}},
	dSplit:   {"split", []string{"split512", "split2048", "split65536"}},
	dWords:   {"words", []string{"words1", "words2", "words4"}},
	dExit:    {"exit", []string{"exit", "noexit"}},
	dSteal:   {"steal", []string{"steal", "nosteal"}},
	dDepth:   {"depth", []string{"depth0", "depth2"}},
	dView:    {"view", []string{"csr", "overlay"}},
	dVisit:   {"visit", []string{"novisit", "visit"}},
	dRecord:  {"record", []string{"levels", "nolevels"}},
	dPlace:   {"place", []string{"below", "at", "past", "clustered"}},
	dShape:   {"shape", shapeNames()},
}

// shapes are the graphs the grid runs on, as generated (identity ids).
var shapes = []struct {
	name  string
	build func() *graph.Graph
}{
	{"kron", func() *graph.Graph { return gen.Kronecker(gen.Graph500Params(10, 3)) }}, // dense core: Auto goes bottom-up
	{"uniform", func() *graph.Graph { return gen.Uniform(4000, 3, 13) }},              // sparse, many components
	{"ldbc", func() *graph.Graph { return gen.LDBC(gen.LDBCDefaults(1500, 2)) }},      // social network
	{"powerlaw", func() *graph.Graph {
		return gen.PowerLaw(gen.PowerLawParams{N: 1000, Exponent: 2.1, MinDegree: 1, Seed: 4})
	}}, // heavy tail
	{"web", func() *graph.Graph { return gen.Web(gen.WebParams{N: 1500, AvgDegree: 8, LocalityWindow: 16, Seed: 5}) }}, // local links
	{"kron12", func() *graph.Graph { return gen.Kronecker(gen.Graph500Params(12, 6)) }},                                // eight 512-vertex tasks
	{"path", func() *graph.Graph { return core.PathGraph(300) }},                                                       // one vertex per level
	{"star", func() *graph.Graph { return core.StarGraph(900) }},                                                       // one hub
	{"components", core.Disconnected},                                                                                  // trailing isolated block
	{"midgap", midGap},                                                                                                 // isolated ids mid-range
	{"bipartite", bipartite},                                                                                           // every arc crosses a shard
	{"pair", func() *graph.Graph { return graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}) }},
	{"single", func() *graph.Graph { return graph.FromEdges(1, nil) }},
}

func shapeNames() []string {
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.name
	}
	return names
}

// midGap is two 100-vertex paths around 100 isolated ids: the active
// prefix stays at n.
func midGap() *graph.Graph {
	b := graph.NewBuilder(300)
	for v := 0; v+1 < 300; v++ {
		if v < 100 || v >= 200 {
			b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
		}
	}
	return b.Build()
}

// bipartite joins the first and the last 64 of 256 vertices completely, so
// under any contiguous sharding every arc leaves its shard.
func bipartite() *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < 64; u++ {
		for v := 192; v < 256; v++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
		}
	}
	return graph.FromEdges(256, edges)
}

// gridSlices are the full-mode products, written axis=value,... with
// axis=* for every value; an unnamed axis runs its default.
var gridSlices = []struct{ name, spec string }{
	// Every kernel on every small shape, including degenerate ones:
	// isolated ids mid-range and a graph whose every arc crosses a stripe.
	{"kernels", "kernel=mspbfs,smspbfs,msbfs,ibfs,beamer-gapbs,beamer-sparse,beamer-dense repr=* dir=* workers=w1,w4 place=at shape=kron,uniform,ldbc,powerlaw,web,path,star,components,midgap,bipartite,pair,single"},
	// Forced directions and the bottom-up early exit.
	{"direction", "kernel=mspbfs,smspbfs repr=* dir=* workers=w1,w3 words=words1,words2 shape=kron,uniform; kernel=mspbfs,smspbfs repr=* dir=bottomup workers=w1,w3 exit=noexit shape=kron,uniform"},
	// Batch widths and the batch drivers: per core, per socket, one source
	// at a time.
	{"batches", "kernel=mspbfs,msbfs,msbfs-direct,msbfs-core,mspbfs-socket,ibfs,smspbfs-all workers=w3 words=* shape=kron; kernel=msbfs-direct dir=topdown words=words1,words2 shape=kron,ldbc"},
	// Every labeling: a relabeling is an isomorphism, so distances survive it.
	{"labeling", "kernel=mspbfs,smspbfs,msbfs repr=* label=* workers=w1,w3 shape=kron,uniform"},
	// The fused overlay scans against the compacted graph's answer.
	{"overlay", "kernel=mspbfs,smspbfs,mspbfs-socket,smspbfs-all repr=* dir=* workers=w4 view=* visit=visit shape=kron"},
	// The scatter → apply substrate: rows cut at stripe and task borders,
	// and MS-PBFS's visitor emitting from them at one and two words.
	{"segmented", "kernel=mspbfs,smspbfs repr=* dir=* workers=w3,w4,w8 split=* words=words1,words2 view=* shape=kron12; kernel=mspbfs dir=* workers=w3,w4,w8 split=* words=words1,words2 visit=visit shape=kron12"},
	// Sources on both sides of the active prefix, and all past it.
	{"prefix", "kernel=mspbfs,smspbfs repr=* label=striped dir=* workers=w1,w3 words=words1,words2 view=* visit=visit place=at,past shape=kron12; kernel=mspbfs,smspbfs repr=* words=words1,words2 visit=visit place=* shape=components,midgap"},
	// MaxDepth in every direction, also with isolated ids mid-range.
	{"depth", "kernel=mspbfs,smspbfs,msbfs,msbfs-direct,msbfs-core repr=* dir=* workers=w2 depth=depth2 shape=path,kron,midgap"},
	// Stealing and the early exit off; every worker count on a sparse graph.
	{"tuning", "kernel=mspbfs,smspbfs repr=* dir=auto,bottomup workers=w4 exit=* steal=* shape=kron; kernel=mspbfs,smspbfs repr=* dir=* workers=w1,w2,w3,w4 shape=uniform"},
	// Runs that record no levels, the path of the serving fold and the
	// benchmark: the visited totals and the visitor's stream alone.
	{"record", "kernel=* layer=core repr=* dir=* workers=w2 words=words1,words2 visit=* record=nolevels shape=kron,path,components; kernel=mspbfs,smspbfs layer=root,shards2 visit=* record=nolevels shape=ldbc,components"},
	// The root facade's BFS and MultiBFSVisitor.
	{"root", "kernel=mspbfs,smspbfs layer=root repr=* dir=* workers=w2 view=* visit=visit shape=ldbc; kernel=mspbfs,smspbfs layer=root depth=depth2 shape=ldbc"},
	// Sharded runs over adversarial partitions: isolated tails, arcs that
	// all cross shards, clustered sources, empty shards, long paths.
	{"shards", "layer=shards2,shards3 label=identity,striped words=words1,words2 visit=visit place=below,past shape=kron,components,bipartite,single; layer=shards2,shards3 place=clustered shape=kron,bipartite; layer=shards2,shards3 depth=depth2 shape=kron,path; layer=shards2 shape=path"},
}

// An impl is one kernel reached through one layer: the axes it reads
// there, beyond label, record, place and shape, which every cell reads, how
// many of the cell's sources it runs (0: all; the single-source kernels run
// the first few, one at a time), and how it runs.
type impl struct {
	kernel, layer string
	axes          string
	sources       int
	run           func(r *cellRun)
}

const (
	parallel = "dir workers split exit steal depth view"
	seqMulti = "dir words exit depth"
	rootMS   = "dir workers words depth view visit"
	sharded  = "workers words depth visit"
)

var impls = []impl{
	{"mspbfs", "core", parallel + " words visit", 0, func(r *cellRun) {
		if r.visits == nil {
			r.multi(core.MSPBFS(r.g, r.sources, r.opt), r.batches())
			return
		}
		e := core.NewMSPBFSEngine(r.g, r.opt)
		defer e.Close()
		r.multi(e.Run(r.sources, r.visit()), r.batches())
	}},
	{"smspbfs", "core", parallel + " repr", 4, func(r *cellRun) {
		r.single(func(s int) *core.Result { return core.SMSPBFS(r.g, s, r.c.repr(), r.opt) })
	}},
	{"smspbfs-all", "core", "dir workers split exit steal depth view repr", 4, func(r *cellRun) {
		r.multi(core.SMSPBFSAll(r.g, r.sources, r.c.repr(), r.opt), len(r.sources))
	}},
	{"mspbfs-socket", "core", parallel + " words", 0, func(r *cellRun) {
		r.instances(core.MSPBFSPerSocket(r.g, r.sources, 2, r.opt), 2)
	}},
	{"msbfs", "core", seqMulti, 0, func(r *cellRun) { r.multi(core.MSBFS(r.g, r.sources, r.opt), r.batches()) }},
	{"msbfs-direct", "core", seqMulti, 0, func(r *cellRun) { r.multi(core.MSBFSDirect(r.g, r.sources, r.opt), r.batches()) }},
	{"msbfs-core", "core", seqMulti + " workers", 0, func(r *cellRun) {
		r.instances(core.MSBFSPerCore(r.g, r.sources, r.opt), r.c.workers())
	}},
	{"ibfs", "core", "workers words", 0, func(r *cellRun) { r.multi(core.IBFS(r.g, r.sources, r.opt), r.batches()) }},
	{"beamer-gapbs", "core", "dir", 4, beamer(core.BeamerGAPBS)},
	{"beamer-sparse", "core", "dir", 4, beamer(core.BeamerSparse)},
	{"beamer-dense", "core", "dir", 4, beamer(core.BeamerDense)},
	{"mspbfs", "root", rootMS, 0, func(r *cellRun) {
		res := r.root().MultiBFSVisitor(r.sources, r.rootOptions(), r.visit())
		r.levels, r.visited = res.Levels, res.VisitedStates
		if res.Elapsed <= 0 {
			r.t.Errorf("Elapsed = %v", res.Elapsed)
		}
	}},
	{"smspbfs", "root", "repr dir workers depth view", 4, func(r *cellRun) {
		for _, s := range r.sources {
			res := r.root().BFS(s, r.rootOptions())
			r.levels, r.visited = append(r.levels, res.Levels), r.visited+res.VisitedVertices
		}
	}},
	{"mspbfs", "shards2", sharded, 0, func(r *cellRun) { r.sharded(2) }},
	{"mspbfs", "shards3", sharded, 0, func(r *cellRun) { r.sharded(3) }},
}

func beamer(variant core.BeamerVariant) func(r *cellRun) {
	return func(r *cellRun) {
		r.single(func(s int) *core.Result { return core.Beamer(r.g, s, variant, r.opt) })
	}
}

// A cell is one value index per axis.
type cell [numDims]int

func (c cell) String() string {
	names := make([]string, numDims)
	for d, v := range c {
		names[d] = dims[d].values[v]
	}
	return strings.Join(names, ",")
}

func (c cell) value(d int) string { return dims[d].values[c[d]] }
func (c cell) workers() int       { return []int{1, 2, 3, 4, 8}[c[dWorkers]] }
func (c cell) words() int         { return []int{1, 2, 4}[c[dWords]] }
func (c cell) depth() int         { return 2 * c[dDepth] }

func (c cell) repr() core.StateRepr {
	return []core.StateRepr{core.BitState, core.ByteState}[c[dRepr]]
}

func (c cell) impl() *impl {
	for i := range impls {
		if impls[i].kernel == c.value(dKernel) && impls[i].layer == c.value(dLayer) {
			return &impls[i]
		}
	}
	return nil
}

// reads reports whether x runs axis d at any value but its default.
func (x *impl) reads(d int) bool {
	switch d {
	case dKernel, dLayer, dLabel, dRecord, dPlace, dShape:
		return true
	}
	return slices.Contains(strings.Fields(x.axes), dims[d].name)
}

// allows reports whether a cell of x may hold value v on axis d.
func (x *impl) allows(d, v int) bool {
	switch d {
	case dKernel:
		return dims[d].values[v] == x.kernel
	case dLayer:
		return dims[d].values[v] == x.layer
	}
	return v == 0 || x.reads(d)
}

// canonical returns c with every axis its impl does not read at the
// default, and false when no impl runs c's kernel on c's layer.
func (c cell) canonical() (cell, bool) {
	x := c.impl()
	if x == nil {
		return c, false
	}
	for d := range c {
		if !x.allows(d, c[d]) {
			c[d] = 0
		}
	}
	return c, true
}

// options decodes c into the core options of one run on eng.
func (c cell) options(eng *core.Engine) core.Options {
	return core.Options{
		Workers:          c.workers(),
		BatchWords:       c.words(),
		SplitSize:        []int{512, 2048, 65536}[c[dSplit]],
		Direction:        []core.Direction{core.Auto, core.TopDownOnly, core.BottomUpOnly}[c[dDir]],
		DisableEarlyExit: c[dExit] == 1,
		DisableStealing:  c[dSteal] == 1,
		MaxDepth:         c.depth(),
		RecordLevels:     c[dRecord] == 0,
		Engine:           eng,
	}
}

// parseSlice expands a slice spec, products joined by ";", into its
// canonical cells; the caller skips the repeats.
func parseSlice(spec string) []cell {
	var out []cell
	for _, product := range strings.Split(spec, ";") {
		var vals [numDims][]int
		for d := range vals {
			vals[d] = []int{0}
		}
		for _, field := range strings.Fields(product) {
			name, list, _ := strings.Cut(field, "=")
			d := slices.IndexFunc(dims[:], func(a axis) bool { return a.name == name })
			if d < 0 {
				panic("grid: unknown axis " + name)
			}
			vals[d] = nil
			for _, v := range strings.Split(list, ",") {
				if v == "*" {
					for i := range dims[d].values {
						vals[d] = append(vals[d], i)
					}
				} else if i := slices.Index(dims[d].values, v); i >= 0 {
					vals[d] = append(vals[d], i)
				} else {
					panic("grid: unknown value " + v + " of " + name)
				}
			}
		}
		var walk func(c cell, d int)
		walk = func(c cell, d int) {
			if d == numDims {
				if c, ok := c.canonical(); ok {
					out = append(out, c)
				}
				return
			}
			for _, v := range vals[d] {
				c[d] = v
				walk(c, d+1)
			}
		}
		walk(cell{}, 0)
	}
	return out
}

// shortPins are cells the -short run adds to the pairwise cover: paths
// that need more than two axis values at once, which the cover need not
// meet. The one pinned now is MS-PBFS's narrow (one-word) bottom-up
// emitting a visitor's stream while it records no levels.
const shortPins = "kernel=mspbfs dir=bottomup words=words1 visit=visit record=nolevels shape=kron"

// pairwise returns a seeded, deterministic cover of every pair of axis
// values some impl holds together, built greedily: each new cell starts
// from the first uncovered pair, takes a random impl that allows it, and
// fills the other axes in random order with the allowed value that covers
// the most still-uncovered pairs. Every cell holds the pair it started
// from and only values its impl allows, so the cover is complete and every
// cell canonical by construction.
func pairwise(seed int64) []cell {
	type pair struct{ d1, v1, d2, v2 int }
	key := func(c cell, d, e int) pair { return pair{min(d, e), c[min(d, e)], max(d, e), c[max(d, e)]} }
	rng := rand.New(rand.NewSource(seed))
	var order []pair
	left := map[pair]bool{}
	for d1 := range numDims {
		for d2 := d1 + 1; d2 < numDims; d2++ {
			for v1 := range dims[d1].values {
				for v2 := range dims[d2].values {
					p := pair{d1, v1, d2, v2}
					if slices.ContainsFunc(impls, func(x impl) bool { return x.allows(d1, v1) && x.allows(d2, v2) }) {
						order = append(order, p)
						left[p] = true
					}
				}
			}
		}
	}
	var out []cell
	for _, p := range order {
		if !left[p] {
			continue
		}
		fit := slices.DeleteFunc(slices.Clone(impls), func(x impl) bool { return !x.allows(p.d1, p.v1) || !x.allows(p.d2, p.v2) })
		x := fit[rng.Intn(len(fit))]
		var c cell
		set := map[int]bool{dKernel: true, dLayer: true, p.d1: true, p.d2: true}
		c[dKernel] = slices.Index(dims[dKernel].values, x.kernel)
		c[dLayer] = slices.Index(dims[dLayer].values, x.layer)
		c[p.d1], c[p.d2] = p.v1, p.v2
		for _, d := range rng.Perm(numDims) {
			if set[d] {
				continue
			}
			top, pick := -1, []int(nil)
			for v := range dims[d].values {
				if !x.allows(d, v) {
					continue
				}
				c[d] = v
				gain := 0
				for e := range set {
					if left[key(c, d, e)] {
						gain++
					}
				}
				if gain > top {
					top, pick = gain, nil
				}
				if gain == top {
					pick = append(pick, v)
				}
			}
			c[d], set[d] = pick[rng.Intn(len(pick))], true
		}
		out = append(out, c)
		for d := range numDims {
			for e := d + 1; e < numDims; e++ {
				delete(left, key(c, d, e))
			}
		}
	}
	return out
}

// TestGridMatchesOracle runs the grid: the slices without -short, the
// pairwise cover with it.
func TestGridMatchesOracle(t *testing.T) {
	gr := newGrid()
	t.Cleanup(gr.close)
	ran := map[cell]bool{}
	runCells := func(name string, cells []cell) {
		t.Run(name, func(t *testing.T) {
			for _, c := range cells {
				if ran[c] {
					continue
				}
				ran[c] = true
				t.Run(c.String(), func(t *testing.T) {
					t.Parallel()
					gr.check(t, c)
				})
			}
		})
	}
	if testing.Short() {
		runCells("pairs", append(pairwise(20170321), parseSlice(shortPins)...))
		return
	}
	for _, s := range gridSlices {
		runCells(s.name, parseSlice(s.spec))
	}
}

// FuzzGridCell runs one grid cell, checked as the grid checks it, on a
// graph the input decodes to (decodeGridInput): a vertex count up to 4,096,
// a block of isolated ids mid-range, a trailing isolated block, and edges
// among the rest. The input also picks the cell: its impl and one value
// per axis. The shape axis then only names the cell; the decoded graph
// stands in for the shape. The seed corpus holds each grid shape, and
// gapped graphs of 63, 64, 65, 511, 512 and 513 vertices, the sizes at
// which a word or a 512-vertex task ends one vertex early or late. One grid
// serves every execution of the process: an execution replaces only its
// shape's graph (grid.reshape), so the engines' pools and parked shells
// and the clusters carry over.
func FuzzGridCell(f *testing.F) {
	axes := func(seed int) uint64 { return uint64(seed+1) * 0x9e3779b97f4a7c15 }
	for i, s := range shapes {
		g := s.build()
		var edges [][2]int
		for _, e := range g.Edges() {
			edges = append(edges, [2]int{int(e.U), int(e.V)})
		}
		packed := encodeGridEdges(edges)
		if _, h := decodeGridInput(0, uint64(g.NumVertices()-1), packed); !slices.Equal(h.Edges(), g.Edges()) {
			f.Fatalf("shape %s does not survive its encoding", s.name)
		}
		f.Add(axes(i), uint64(g.NumVertices()-1), packed)
	}
	for i, n := range []int{63, 64, 65, 511, 512, 513} {
		tail, gapLo, gapLen := n/8, n/4, n/8
		live := n - tail - gapLen
		var edges [][2]int
		for u := 0; u+1 < live; u++ {
			edges = append(edges, [2]int{u, u + 1})
			if u%7 == 0 {
				edges = append(edges, [2]int{u, (u * 5) % live})
			}
		}
		sizes := uint64(n-1) | uint64(tail)<<16 | uint64(gapLo)<<32 | uint64(gapLen)<<48
		f.Add(axes(len(shapes)+i), sizes, encodeGridEdges(edges))
	}
	gr := newGrid()
	f.Cleanup(gr.close)
	f.Fuzz(func(t *testing.T, axes, sizes uint64, edges []byte) {
		c, g := decodeGridInput(axes, sizes, edges)
		gr.reshape(c[dShape], g)
		gr.check(t, c)
	})
}

// decodeGridInput decodes a fuzz input into a canonical cell and its graph.
// Nibble d of axes picks axis d's value (the kernel's picks the impl,
// which fixes the layer). The 16-bit fields of sizes, low to high, give
// the vertex count less one (mod 4,096), the length of the trailing
// isolated block, and the first id and length of the mid-range one, each
// reduced to fit what the others leave. Each 3 bytes of edges are an edge:
// two 12-bit ids, reduced modulo the number of live ids and stepped over
// the mid-range block.
func decodeGridInput(axes, sizes uint64, edges []byte) (cell, *graph.Graph) {
	var c cell
	for d := range c {
		c[d] = int(axes>>(4*d)&15) % len(dims[d].values)
	}
	x := impls[int(axes&15)%len(impls)]
	c[dKernel] = slices.Index(dims[dKernel].values, x.kernel)
	c[dLayer] = slices.Index(dims[dLayer].values, x.layer)
	c, _ = c.canonical()

	field := func(i int) int { return int(sizes >> (16 * i) & 0xffff) }
	n := field(0)%4096 + 1
	tail := field(1) % (n + 1)
	gapLo := field(2) % (n - tail + 1)
	gapLen := field(3) % (n - tail - gapLo + 1)
	live := n - tail - gapLen
	id := func(raw int) graph.VertexID {
		v := raw % live
		if v >= gapLo {
			v += gapLen
		}
		return graph.VertexID(v)
	}
	var list []graph.Edge
	for ; live > 0 && len(edges) >= 3 && len(list) < 1<<16; edges = edges[3:] {
		raw := int(edges[0]) | int(edges[1])<<8 | int(edges[2])<<16
		list = append(list, graph.Edge{U: id(raw & 0xfff), V: id(raw >> 12)})
	}
	return c, graph.FromEdges(n, list)
}

// encodeGridEdges packs edges between live ids below 4,096 as
// decodeGridInput reads them.
func encodeGridEdges(edges [][2]int) []byte {
	var data []byte
	for _, e := range edges {
		raw := e[0] | e[1]<<12
		data = append(data, byte(raw), byte(raw>>8), byte(raw>>16))
	}
	return data
}

// grid caches what its cells share: each shape's labeled views, the
// reference rows, one engine for the runs on each view axis value (csr,
// overlay), so a cell's runs take the shells and rows earlier cells
// parked, and, per shard count, one in-process cluster. A slice's cells
// run in parallel; mu guards the caches, and sharded cells hold it for
// their whole run, so a cluster serves one query at a time.
type grid struct {
	mu       sync.Mutex
	graphs   map[int]*graph.Graph            // by shape
	views    map[[2]int]*view                // by (shape, label)
	oracle   map[[2]int][]int32              // by (shape, vertex as generated)
	engines  [2]*core.Engine                 // by view axis value
	clusters [4]*cluster.Inproc              // by shard count
	remotes  map[[4]int]*cluster.RemoteGraph // by (shards, shape, label, workers)
}

func newGrid() *grid {
	return &grid{graphs: map[int]*graph.Graph{}, views: map[[2]int]*view{}, oracle: map[[2]int][]int32{},
		engines: [2]*core.Engine{core.NewEngine(), core.NewEngine()}, remotes: map[[4]int]*cluster.RemoteGraph{}}
}

func (gr *grid) close() {
	for _, ip := range gr.clusters {
		if ip != nil {
			ip.Close()
		}
	}
	gr.engines[0].Close()
	gr.engines[1].Close()
}

// reshape makes g the graph of shape s and drops what the grid derived
// from the one it had: the shape's views, reference rows and cluster
// copies. An engine whose arena has grown past 64 MiB is renewed: arenas
// park per vertex count, and decoded graphs come in thousands of counts.
func (gr *grid) reshape(s int, g *graph.Graph) {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	gr.graphs[s] = g
	maps.DeleteFunc(gr.views, func(k [2]int, _ *view) bool { return k[0] == s })
	maps.DeleteFunc(gr.oracle, func(k [2]int, _ []int32) bool { return k[0] == s })
	maps.DeleteFunc(gr.remotes, func(k [4]int, _ *cluster.RemoteGraph) bool { return k[1] == s })
	for i, eng := range gr.engines {
		if eng.Stats().FreeBytes > 64<<20 {
			eng.Close()
			gr.engines[i] = core.NewEngine()
		}
	}
}

// A view is one shape under one labeling: the relabeled graph, the
// permutation (perm[v] is generated vertex v's id in g) and the same graph
// with every third edge moved into an overlay.
type view struct {
	g, base  *graph.Graph
	ov       *graph.Overlay
	perm     []graph.VertexID
	identity bool
	orig     []int // orig[perm[v]] == v
	lists    map[[2]int][]int
}

// generated maps a row over the view's ids back to generated ids, in buf
// unless the labeling is the identity.
func (v *view) generated(row, buf []int32) []int32 {
	if v.identity {
		return row
	}
	for old, id := range v.perm {
		buf[old] = row[id]
	}
	return buf
}

func (gr *grid) shape(s int) *graph.Graph {
	if gr.graphs[s] == nil {
		gr.graphs[s] = shapes[s].build()
	}
	return gr.graphs[s]
}

func (gr *grid) view(t *testing.T, c cell) *view {
	key := [2]int{c[dShape], c[dLabel]}
	if v := gr.views[key]; v != nil {
		return v
	}
	scheme := []label.Scheme{label.Identity, label.Random, label.DegreeOrdered, label.Striped}[c[dLabel]]
	g, perm := label.Apply(gr.shape(c[dShape]), scheme, label.Params{Workers: 3, Seed: 11})
	v := &view{g: g, perm: perm, identity: scheme == label.Identity, orig: make([]int, len(perm)),
		lists: map[[2]int][]int{}}
	for old, id := range perm {
		v.orig[id] = old
	}
	var kept, moved []graph.Edge
	for i, e := range g.Edges() {
		if i%3 == 0 {
			moved = append(moved, e)
		} else {
			kept = append(kept, e)
		}
	}
	n := g.NumVertices()
	v.base, v.ov = graph.FromEdges(n, kept), graph.NewOverlay(n).WithEdges(moved, nil)
	// The overlay-aware reference must see the graph the overlay completes.
	for _, s := range v.sources(1, 1)[:4] {
		core.CheckLevels(t, fmt.Sprintf("ReferenceBFSOverlay from %d", s),
			core.ReferenceBFSOverlay(v.base, v.ov, s).Levels, core.ReferenceLevels(g, s))
	}
	gr.views[key] = v
	return v
}

// sources is a view's source list for a placement and a batch width, in
// its own ids: one batch and six more, so the list crosses a batch border,
// cycled from a pool of a quarter batch, so sources repeat.
//   - below: every source lies below the active prefix a.
//   - at: a, the last vertex and the sources below a, interleaved.
//   - past: every source lies at or past a, when there are such vertices.
//   - clustered: the lowest active ids, all in the first shard of a
//     cluster, whose other shards start with empty frontiers.
//
// The first entries, which single-source kernels run, hold a placement's
// special vertices.
func (v *view) sources(place, words int) []int {
	key := [2]int{place, words}
	if l, ok := v.lists[key]; ok {
		return l
	}
	n, a := v.g.NumVertices(), v.g.ActivePrefix()
	size := 64*words + 6
	below := core.RandomSources(v.g, 16*words+1, uint64(17+words))
	var pool []int
	switch place {
	case 0:
		pool = append([]int{a - 1}, below...)
	case 1:
		pool = []int{a}
		for i, s := range below {
			if pool = append(pool, s); i == 0 {
				pool = append(pool, n-1)
			}
		}
	case 2:
		pool = []int{a, n - 1, (a + n) / 2}
	case 3:
		for u := 0; u < a && len(pool) <= 16*words; u++ {
			if v.g.Degree(u) > 0 {
				pool = append(pool, u)
			}
		}
	}
	if len(pool) == 0 {
		pool = []int{0}
	}
	list := make([]int, size)
	for i := range list {
		list[i] = min(max(pool[i%len(pool)], 0), n-1)
	}
	v.lists[key] = list
	return list
}

// reference is the textbook BFS row of generated vertex s, cut at depth
// (0: uncut).
func (gr *grid) reference(shape, s, depth int) []int32 {
	key := [2]int{shape, s}
	row, ok := gr.oracle[key]
	if !ok {
		row = core.ReferenceBFS(gr.shape(shape), s).Levels
		gr.oracle[key] = row
	}
	if depth > 0 {
		row = slices.Clone(row)
		for v, lv := range row {
			if lv > int32(depth) {
				row[v] = core.NoLevel
			}
		}
	}
	return row
}

// A cellRun is one cell's traversal: its inputs and, once impl.run
// returns, one level row per source and the visited-state total.
type cellRun struct {
	t       *testing.T
	gr      *grid
	c       cell
	g       *graph.Graph // the view's graph, or its base under the overlay view
	sources []int
	opt     core.Options
	visits  *visitRows
	lone    bool // every source reaches only itself

	levels  [][]int32
	visited int64
}

// multi takes the result of a run that made the given number of
// traversals: one per batch, or one per source for SMS-PBFS-all.
func (r *cellRun) multi(res *core.MultiResult, traversals int) {
	r.levels, r.visited = res.Levels, res.VisitedStates
	if res.Stats.Sources != len(r.sources) {
		r.t.Errorf("Stats.Sources = %d, want %d", res.Stats.Sources, len(r.sources))
	}
	r.checkLone(res.Stats.Iterations, traversals)
}

// batches is the number of batches the cell's sources split into.
func (r *cellRun) batches() int {
	per := core.SourcesPerBatch(r.c.words())
	return (len(r.sources) + per - 1) / per
}

// instances is multi for the instance-per-core and -per-socket modes,
// which also report one busy time per instance.
func (r *cellRun) instances(res *core.MultiResult, n int) {
	r.multi(res, r.batches())
	if len(res.WorkerBusy) != n {
		r.t.Errorf("%d busy times, want one per instance (%d)", len(res.WorkerBusy), n)
	}
}

// single runs each source alone.
func (r *cellRun) single(run func(s int) *core.Result) {
	for _, s := range r.sources {
		res := run(s)
		r.levels, r.visited = append(r.levels, res.Levels), r.visited+res.VisitedVertices
		r.checkLone(res.Stats.Iterations, 1)
	}
}

// checkLone: a run whose every source is isolated makes one level per
// traversal, which discovers nothing and scans no arc top-down and every
// arc bottom-up, where no vertex finds a frontier neighbor
// (CollectIterStats is on exactly then).
func (r *cellRun) checkLone(its []obs.IterationRecord, traversals int) {
	if !r.lone {
		return
	}
	bottomUp := r.opt.Direction == core.BottomUpOnly
	arcs := int64(len(r.g.Adjacency)) + r.opt.Overlay.Arcs()
	if len(its) != traversals || slices.ContainsFunc(its, func(it obs.IterationRecord) bool {
		return it.UpdatedStates != 0 || it.BottomUp != bottomUp || it.ScannedEdges != map[bool]int64{false: 0, true: arcs}[bottomUp]
	}) {
		r.t.Errorf("isolated sources: %d levels (%+v), want %d that update nothing and scan %d arcs", len(its), its, traversals, arcs)
	}
}

func (r *cellRun) root() *msbfs.Graph {
	return msbfs.NewGraphFromAdjacency(r.g.Offsets, r.g.Adjacency)
}

func (r *cellRun) rootOptions() msbfs.Options {
	return msbfs.Options{
		Workers:      r.opt.Workers,
		BatchWords:   r.opt.BatchWords,
		ByteState:    r.c.repr() == core.ByteState,
		TopDownOnly:  r.opt.Direction == core.TopDownOnly,
		BottomUpOnly: r.opt.Direction == core.BottomUpOnly,
		MaxDepth:     r.opt.MaxDepth,
		RecordLevels: r.opt.RecordLevels,
		Overlay:      r.opt.Overlay,
	}
}

// sharded runs the cell on one shared in-process cluster of the given
// width, which holds one copy of the view per worker count.
func (r *cellRun) sharded(width int) {
	gr := r.gr
	gr.mu.Lock()
	defer gr.mu.Unlock()
	if gr.clusters[width] == nil {
		ip, err := cluster.StartInproc(context.Background(), width,
			cluster.ShardOptions{Workers: 2, StepTimeout: cluster.DefaultInprocStepTimeout}, cluster.CoordinatorOptions{})
		if err != nil {
			r.t.Fatalf("StartInproc(%d): %v", width, err)
		}
		gr.clusters[width] = ip
	}
	key := [4]int{width, r.c[dShape], r.c[dLabel], r.c.workers()}
	rg := gr.remotes[key]
	if rg == nil {
		var err error
		rg, err = gr.clusters[width].Coord.LoadGraph(context.Background(), fmt.Sprint(key), r.root(), r.c.workers())
		if err != nil {
			r.t.Fatalf("LoadGraph: %v", err)
		}
		gr.remotes[key] = rg
	}
	res, err := rg.RunBatch(context.Background(), r.sources, r.rootOptions(), r.visit())
	if err != nil {
		r.t.Fatalf("RunBatch: %v", err)
	}
	r.levels, r.visited = res.Levels, res.VisitedStates
}

// visitRows records visitor calls as level rows, one per source, and
// counts the calls that repeat a (source, vertex) or name a worker the run
// does not have.
type visitRows struct {
	n, workers int
	rows       []int32
	bad        atomic.Int64
}

func newVisitRows(k, n, workers int) *visitRows {
	rows := make([]int32, k*n)
	for i := range rows {
		rows[i] = core.NoLevel
	}
	return &visitRows{n: n, workers: workers, rows: rows}
}

// visit records one visitor call.
func (vr *visitRows) visit(w, i, u, depth int) {
	if w < 0 || w >= vr.workers || !atomic.CompareAndSwapInt32(&vr.rows[i*vr.n+u], core.NoLevel, int32(depth)) {
		vr.bad.Add(1)
	}
}

// visit is the cell's visitor: nil unless the cell reads visit=visit.
func (r *cellRun) visit() func(workerID, sourceIdx, vertex, depth int) {
	if r.visits == nil {
		return nil
	}
	return r.visits.visit
}

func (vr *visitRows) row(i int) []int32 { return vr.rows[i*vr.n : (i+1)*vr.n] }

// check runs cell c and holds it to the reference.
func (gr *grid) check(t *testing.T, c cell) {
	gr.mu.Lock()
	x, v := c.impl(), gr.view(t, c)
	eng := gr.engines[c[dView]]
	r := &cellRun{t: t, gr: gr, c: c, g: v.g, opt: c.options(eng),
		sources: v.sources(c[dPlace], c.words())}
	if x.sources > 0 {
		r.sources = r.sources[:min(x.sources, len(r.sources))]
	}
	if c.value(dView) == "overlay" {
		r.g, r.opt.Overlay = v.base, v.ov
	}
	n := v.g.NumVertices()
	if c.value(dVisit) == "visit" {
		r.visits = newVisitRows(len(r.sources), n, c.workers())
	}
	want := make([][]int32, len(r.sources))
	var wantVisited int64
	r.lone = true
	for i, s := range r.sources {
		want[i] = gr.reference(c[dShape], v.orig[s], c.depth())
		reached := int64(0)
		for _, lv := range want[i] {
			if lv != core.NoLevel {
				reached++
			}
		}
		wantVisited += reached
		r.lone = r.lone && reached == 1
	}
	gr.mu.Unlock()
	r.opt.CollectIterStats = r.lone

	x.run(r)

	record := r.opt.RecordLevels
	if record && len(r.levels) != len(r.sources) {
		t.Fatalf("%d level rows for %d sources", len(r.levels), len(r.sources))
	}
	if !record && slices.ContainsFunc(r.levels, func(row []int32) bool { return row != nil }) {
		t.Errorf("level rows recorded without RecordLevels")
	}
	buf := make([]int32, n)
	for i, s := range r.sources {
		if record && !core.CheckLevels(t, fmt.Sprintf("source %d (vertex %d)", i, s), v.generated(r.levels[i], buf), want[i]) {
			break
		}
		if r.visits != nil && !core.CheckLevels(t, fmt.Sprintf("visits of source %d (vertex %d)", i, s),
			v.generated(r.visits.row(i), buf), want[i]) {
			break
		}
	}
	if r.visited != wantVisited {
		t.Errorf("visited %d states, want %d", r.visited, wantVisited)
	}
	if r.visits != nil && r.visits.bad.Load() != 0 {
		t.Errorf("%d visitor calls repeat a (source, vertex) or name a worker out of range", r.visits.bad.Load())
	}
}
