package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The arena-hygiene suite is adversarial: it fills every artifact parked
// in an engine's free lists with all-ones (and level rows with garbage),
// re-borrows them through a second run of every algorithm variant, and
// asserts the results are bit-identical to the reference. The scrub-on-
// borrow contract — the first-touch zero pass for shells, the NoLevel fill
// for level rows — is what makes this hold; a missing scrub shows up as a
// vertex "visited" by a query that never reached it. The baselines borrow
// level rows only, so their rows are what this suite poisons for them.

const levelPoison = int32(123456789)

func fillOnes(ws []uint64) {
	for i := range ws {
		ws[i] = ^uint64(0)
	}
}

// poisonEngine corrupts every free-listed artifact in e as hostilely as
// the representation allows. It reaches through the engine's internals on
// purpose: the contract is that nothing a previous run left behind — or a
// caller scribbled after returning — can leak into the next borrow.
func poisonEngine(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, l := range e.shells.free {
		for _, ls := range l {
			for w := range ls.scanned {
				ls.scanned[w].v = 1 << 40
				ls.updated[w].v = 1 << 40
				ls.frontDeg[w].v = 1 << 40
			}
			switch sh := ls.self.(type) {
			case *MSPBFSEngine:
				for w := range sh.frontVtx {
					sh.frontVtx[w].v = 1 << 40
					sh.unseenDeg[w].v = 1 << 40
				}
				fillOnes(sh.seen.Words())
				fillOnes(sh.buf0.Words())
				fillOnes(sh.buf1.Words())
				fillOnes(sh.mask)
				for _, row := range sh.scratch {
					fillOnes(row)
				}
				for _, row := range sh.liveBits {
					fillOnes(row)
				}
			case *SMSPBFSEngine:
				fillOnes(sh.seen.words)
				fillOnes(sh.buf0.words)
				fillOnes(sh.buf1.words)
			}
		}
	}
	for _, rows := range e.levels.free {
		for _, row := range rows {
			for i := range row {
				row[i] = levelPoison
			}
		}
	}
}

// hygieneVariant runs one algorithm with levels recorded and hands the
// per-source rows back so they land in the arena (and get poisoned).
type hygieneVariant struct {
	name string
	run  func(e *Engine, g *graph.Graph, sources []int) [][]int32
}

func hygieneVariants() []hygieneVariant {
	multi := func(f func(opt Options, g *graph.Graph, sources []int) *MultiResult) func(*Engine, *graph.Graph, []int) [][]int32 {
		return func(e *Engine, g *graph.Graph, sources []int) [][]int32 {
			res := f(Options{Workers: 2, RecordLevels: true, Engine: e}, g, sources)
			out := make([][]int32, len(res.Levels))
			for i, row := range res.Levels {
				out[i] = append([]int32(nil), row...)
			}
			e.ReleaseLevels(res.Levels...)
			return out
		}
	}
	single := func(f func(opt Options, g *graph.Graph, source int) *Result) func(*Engine, *graph.Graph, []int) [][]int32 {
		return func(e *Engine, g *graph.Graph, sources []int) [][]int32 {
			out := make([][]int32, len(sources))
			for i, s := range sources {
				res := f(Options{Workers: 2, RecordLevels: true, Engine: e}, g, s)
				out[i] = append([]int32(nil), res.Levels...)
				e.ReleaseLevels(res.Levels)
			}
			return out
		}
	}
	return []hygieneVariant{
		{"mspbfs/topdown", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			opt.Direction = TopDownOnly
			return MSPBFS(g, ss, opt)
		})},
		{"mspbfs/bottomup", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			opt.Direction = BottomUpOnly
			return MSPBFS(g, ss, opt)
		})},
		{"mspbfs/auto", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			return MSPBFS(g, ss, opt)
		})},
		{"smspbfs/bit", single(func(opt Options, g *graph.Graph, s int) *Result {
			return SMSPBFS(g, s, BitState, opt)
		})},
		{"smspbfs/byte", single(func(opt Options, g *graph.Graph, s int) *Result {
			return SMSPBFS(g, s, ByteState, opt)
		})},
		{"msbfs", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			return MSBFS(g, ss, opt)
		})},
		{"msbfs/percore", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			return MSBFSPerCore(g, ss, opt)
		})},
		{"ibfs", multi(func(opt Options, g *graph.Graph, ss []int) *MultiResult {
			return IBFS(g, ss, opt)
		})},
		{"beamer/gapbs", single(func(opt Options, g *graph.Graph, s int) *Result {
			return Beamer(g, s, BeamerGAPBS, opt)
		})},
		{"beamer/sparse", single(func(opt Options, g *graph.Graph, s int) *Result {
			return Beamer(g, s, BeamerSparse, opt)
		})},
		{"beamer/dense", single(func(opt Options, g *graph.Graph, s int) *Result {
			return Beamer(g, s, BeamerDense, opt)
		})},
	}
}

func TestArenaHygieneSurvivesPoisoning(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 2))
	sources := RandomSources(g, 24, 5)
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = ReferenceLevels(g, s)
	}

	for _, v := range hygieneVariants() {
		t.Run(v.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Close()

			// Warm run fills the arena; cold-path correctness is the
			// correctness suite's job, but verify anyway so a warm-path
			// failure below is unambiguous.
			cold := v.run(e, g, sources)
			for i := range sources {
				CheckLevels(t, fmt.Sprintf("cold src=%d", sources[i]), cold[i], want[i])
			}
			if st := e.Stats(); st.Borrowed != 0 {
				t.Fatalf("borrowed = %d after warm run, want 0 (poisoning would miss live state)", st.Borrowed)
			}

			poisonEngine(e)

			warm := v.run(e, g, sources)
			for i := range sources {
				CheckLevels(t, fmt.Sprintf("poisoned src=%d", sources[i]), warm[i], want[i])
			}
		})
	}
}

// TestPoisonedLevelRowsScrubbed pins the level-row half specifically: a
// recycled row must carry no poison even for unreachable vertices (the
// NoLevel fill is the scrub).
func TestPoisonedLevelRowsScrubbed(t *testing.T) {
	g := Disconnected()
	e := NewEngine()
	defer e.Close()
	opt := Options{Workers: 2, RecordLevels: true, Engine: e}

	res := MSPBFS(g, []int{0}, opt)
	e.ReleaseLevels(res.Levels...)
	poisonEngine(e)

	res = MSPBFS(g, []int{0}, opt)
	for v, lvl := range res.Levels[0] {
		if lvl == levelPoison {
			t.Fatalf("vertex %d reported the poison level: recycled row not scrubbed", v)
		}
	}
	e.ReleaseLevels(res.Levels...)
}
