package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The arena-hygiene suite is adversarial: it fills every shell parked in
// an engine's free lists with all-ones, re-borrows them through a second
// run of every MS-/SMS-PBFS variant, and asserts the results are
// bit-identical to the reference. The scrub-on-borrow contract — the
// shell's first-touch zero pass — is what makes this hold; a missing scrub
// shows up as a vertex "visited" by a query that never reached it. The
// baselines borrow nothing from the engine; their variants run beside the
// poisoned MS-/SMS-PBFS shells every engine here is seeded with, so a
// baseline that started reading the arena would answer wrong.

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
}

// hygieneVariant runs one algorithm with levels recorded and returns the
// per-source rows; its shell parks in the arena (and gets poisoned).
type hygieneVariant struct {
	name string
	run  func(e *Engine, g *graph.Graph, sources []int) [][]int32
}

func hygieneVariants() []hygieneVariant {
	multi := func(f func(opt Options, g *graph.Graph, sources []int) *MultiResult) func(*Engine, *graph.Graph, []int) [][]int32 {
		return func(e *Engine, g *graph.Graph, sources []int) [][]int32 {
			return f(Options{Workers: 2, RecordLevels: true, Engine: e}, g, sources).Levels
		}
	}
	single := func(f func(opt Options, g *graph.Graph, source int) *Result) func(*Engine, *graph.Graph, []int) [][]int32 {
		return func(e *Engine, g *graph.Graph, sources []int) [][]int32 {
			out := make([][]int32, len(sources))
			for i, s := range sources {
				out[i] = f(Options{Workers: 2, RecordLevels: true, Engine: e}, g, s).Levels
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
			// Park an MS-PBFS and an SMS-PBFS shell, so even a variant
			// that parks nothing of its own runs beside poisoned ones.
			MSPBFS(g, sources, Options{Workers: 2, Engine: e})
			SMSPBFS(g, sources[0], BitState, Options{Workers: 2, Engine: e})

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
