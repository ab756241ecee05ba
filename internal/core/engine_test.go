package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// The engine tests pin the arena contract: borrows are served from the
// free lists after a warmup run (hits), returns balance borrows exactly
// (Borrowed drains to zero), and Close degrades to plain allocation instead
// of failing.

func TestEnginePoolCheckoutReuse(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	p1, release1 := e.BorrowPool(3)
	if p1.Workers() != 3 {
		t.Fatalf("borrowed pool has %d workers, want 3", p1.Workers())
	}
	release1()
	p2, release2 := e.BorrowPool(3)
	if p1 != p2 {
		t.Error("second same-width borrow did not reuse the pooled worker set")
	}
	release2()
	release2() // idempotent: must not double-return the pool

	st := e.Stats()
	if st.FreePools != 1 || st.PooledWorkers != 3 {
		t.Errorf("free pools = %d (%d workers), want 1 (3)", st.FreePools, st.PooledWorkers)
	}
	if st.Borrowed != 0 {
		t.Errorf("borrowed = %d after all releases, want 0", st.Borrowed)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestEngineConcurrentBorrowsGetDistinctPools(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	p1, release1 := e.BorrowPool(2)
	p2, release2 := e.BorrowPool(2)
	if p1 == p2 {
		t.Fatal("overlapping borrows shared one pool; checkout must be exclusive")
	}
	release1()
	release2()
	if st := e.Stats(); st.FreePools != 2 {
		t.Errorf("free pools = %d, want 2", st.FreePools)
	}
}

func TestEnginePrewarm(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Prewarm(4)
	st := e.Stats()
	if st.FreePools != 1 || st.PooledWorkers != 4 {
		t.Errorf("after Prewarm(4): free pools = %d (%d workers), want 1 (4)",
			st.FreePools, st.PooledWorkers)
	}
	_, release := e.BorrowPool(4)
	release()
	if st := e.Stats(); st.Hits == 0 {
		t.Error("borrow after Prewarm missed the pool cache")
	}
}

// TestEngineShellReuseAcrossRuns checks that a second same-shape MS-PBFS
// run is served from the arena and still answers correctly.
func TestEngineShellReuseAcrossRuns(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 1))
	sources := RandomSources(g, 16, 7)
	e := NewEngine()
	defer e.Close()
	opt := Options{Workers: 2, Engine: e, RecordLevels: true}

	MSPBFS(g, sources, opt)
	st1 := e.Stats()
	if st1.FreeShells == 0 {
		t.Fatal("no MS-PBFS shell checked into the arena after the first run")
	}

	res2 := MSPBFS(g, sources, opt)
	st2 := e.Stats()
	if st2.Hits <= st1.Hits {
		t.Errorf("second run recorded no arena hits (%d -> %d)", st1.Hits, st2.Hits)
	}
	for i, src := range res2.Sources {
		CheckLevels(t, fmt.Sprintf("recycled shell src=%d", src), res2.Levels[i], ReferenceLevels(g, src))
	}
	if st := e.Stats(); st.Borrowed != 0 {
		t.Errorf("borrowed = %d after runs completed, want 0", st.Borrowed)
	}
}

// TestVisitorScopedToCall: MS-PBFS holds a visitor only for the call that
// passed it. Run lets go of it on return, and a shell closed after Seed
// parks without it, so the arena pins no caller closure.
func TestVisitorScopedToCall(t *testing.T) {
	g := PathGraph(100)
	eng := NewEngine()
	defer eng.Close()
	calls := 0
	visit := func(_, _, _, _ int) { calls++ }
	e := NewMSPBFSEngine(g, Options{Engine: eng})
	e.Run([]int{0}, visit)
	if calls != 100 || e.visit != nil {
		t.Errorf("Run: %d visits, want 100; visitor kept past the call: %t", calls, e.visit != nil)
	}
	e.Seed([]int{0}, 0, nil, visit)
	e.Close()
	if e.visit != nil {
		t.Error("a shell closed after Seed parked with its visitor")
	}
}

// TestBaselinesTouchNoEngine: the paper's comparators allocate their own
// bitset states, bitmaps and level rows and run on no pooled workers, so
// even a run that records levels leaves an engine as it found it.
func TestBaselinesTouchNoEngine(t *testing.T) {
	g := gen.Uniform(1200, 6, 3)
	sources := RandomSources(g, 8, 5)
	e := NewEngine()
	defer e.Close()
	opt := Options{Workers: 2, Engine: e, RecordLevels: true}

	MSBFS(g, sources, opt)
	MSBFSDirect(g, sources, opt)
	MSBFSPerCore(g, sources, opt)
	IBFS(g, sources, opt)
	for _, v := range []BeamerVariant{BeamerSparse, BeamerDense, BeamerGAPBS} {
		Beamer(g, sources[0], v, opt)
	}
	if st := e.Stats(); st != (EngineStats{}) {
		t.Errorf("baselines touched the engine: %+v", st)
	}
}

// TestEngineCloseDegradesGracefully pins the Close contract: a closed
// engine keeps serving borrows (by plain allocation) and silently drops
// returns, so shutdown never races a traversal into a crash.
func TestEngineCloseDegradesGracefully(t *testing.T) {
	g := gen.Uniform(600, 5, 2)
	sources := RandomSources(g, 8, 11)
	e := NewEngine()
	opt := Options{Workers: 2, Engine: e, RecordLevels: true}

	MSPBFS(g, sources, Options{Workers: 2, Engine: e})
	e.Close()
	st := e.Stats()
	if st.FreePools != 0 || st.FreeShells != 0 || st.FreeBytes != 0 {
		t.Errorf("arena not empty after Close: %+v", st)
	}

	res := MSPBFS(g, sources, opt)
	for i, src := range res.Sources {
		CheckLevels(t, fmt.Sprintf("closed-engine src=%d", src), res.Levels[i], ReferenceLevels(g, src))
	}
	st = e.Stats()
	if st.FreePools != 0 || st.FreeShells != 0 {
		t.Errorf("closed engine cached returns: %+v", st)
	}
	if st.Borrowed != 0 {
		t.Errorf("borrowed = %d after closed-engine run, want 0", st.Borrowed)
	}
}

// TestFrontierIsLevelDiscoveries: after Seed, Frontier holds the sources,
// and after every Step exactly the (vertex, source) states that level
// discovered, as the recorded levels say — top-down, bottom-up, and on a
// top-down level that follows a bottom-up one, whose next buffer the
// bottom-up read as its frontier.
func TestFrontierIsLevelDiscoveries(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(12, 5))
	n := g.NumVertices()
	for _, dir := range []Direction{TopDownOnly, Auto, BottomUpOnly} {
		for _, k := range []int{64, 100} {
			sources := RandomSources(g, k, 7)
			words := (k + 63) / 64
			e := NewMSPBFSEngine(g, Options{Workers: 3, BatchWords: words, Direction: dir})
			levels := newLevelRows(n, k)
			e.Seed(sources, 0, levels, nil)
			afterBottomUp := false
			for depth := int32(0); ; depth++ {
				if depth > 0 {
					wasBottomUp := e.bottomUp
					frontier, _, _, err := e.Step(nil)
					if err != nil {
						t.Fatal(err)
					}
					afterBottomUp = afterBottomUp || (wasBottomUp && !e.bottomUp)
					if frontier == 0 {
						break
					}
				}
				f := e.Frontier()
				rows := len(f) / words
				for v := range n {
					for i := range k {
						set := v < rows && f[v*words+i/64]&(1<<(i%64)) != 0
						if set != (levels[i][v] == depth) {
							t.Fatalf("%v k=%d depth %d: vertex %d slot %d: frontier bit %t, level %d",
								dir, k, depth, v, i, set, levels[i][v])
						}
					}
				}
			}
			e.Close()
			if dir == Auto && !afterBottomUp {
				t.Errorf("k=%d: no top-down level followed a bottom-up one", k)
			}
		}
	}
}
