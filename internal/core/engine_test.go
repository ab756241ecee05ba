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

	res1 := MSPBFS(g, sources, opt)
	st1 := e.Stats()
	if st1.FreeShells == 0 {
		t.Fatal("no MS-PBFS shell checked into the arena after the first run")
	}
	e.ReleaseLevels(res1.Levels...)

	res2 := MSPBFS(g, sources, opt)
	st2 := e.Stats()
	if st2.Hits <= st1.Hits {
		t.Errorf("second run recorded no arena hits (%d -> %d)", st1.Hits, st2.Hits)
	}
	for i, src := range res2.Sources {
		CheckLevels(t, fmt.Sprintf("recycled shell src=%d", src), res2.Levels[i], ReferenceLevels(g, src))
	}
	e.ReleaseLevels(res2.Levels...)
	if st := e.Stats(); st.Borrowed != 0 {
		t.Errorf("borrowed = %d after runs completed and levels released, want 0", st.Borrowed)
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
	e.Seed([]int{0}, 0, visit)
	e.Close()
	if e.visit != nil {
		t.Error("a shell closed after Seed parked with its visitor")
	}
}

// TestEngineStateAndBitmapReuse drives the borrowState / borrowBitmap
// paths (MSBFS states, Beamer bitmaps) and checks the free lists fill and
// drain as designed.
func TestEngineStateAndBitmapReuse(t *testing.T) {
	g := gen.Uniform(1200, 6, 3)
	sources := RandomSources(g, 8, 5)
	e := NewEngine()
	defer e.Close()
	opt := Options{Workers: 2, Engine: e}

	MSBFS(g, sources, opt)
	st := e.Stats()
	if st.FreeStates < 3 {
		t.Errorf("free states = %d after MSBFS, want the seen/frontier/next triple", st.FreeStates)
	}

	Beamer(g, sources[0], BeamerGAPBS, opt)
	if st := e.Stats(); st.FreeBitmaps == 0 {
		t.Error("no bitmaps checked into the arena after a Beamer run")
	}

	before := e.Stats()
	MSBFS(g, sources, opt)
	after := e.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("repeat MSBFS recorded no arena hits (%d -> %d)", before.Hits, after.Hits)
	}
	if after.Borrowed != 0 {
		t.Errorf("borrowed = %d after runs completed, want 0", after.Borrowed)
	}
}

// TestEngineLevelRowRecycling pins the explicit level-row contract:
// recorded levels stay checked out until ReleaseLevels hands them back.
func TestEngineLevelRowRecycling(t *testing.T) {
	g := gen.Uniform(800, 5, 9)
	sources := RandomSources(g, 8, 3)
	e := NewEngine()
	defer e.Close()
	opt := Options{Workers: 2, Engine: e, RecordLevels: true}

	res := MSPBFS(g, sources, opt)
	if st := e.Stats(); st.Borrowed != int64(len(sources)) {
		t.Errorf("borrowed = %d while the caller holds %d level rows", st.Borrowed, len(sources))
	}
	e.ReleaseLevels(res.Levels...)
	st := e.Stats()
	if st.Borrowed != 0 {
		t.Errorf("borrowed = %d after ReleaseLevels, want 0", st.Borrowed)
	}
	if st.FreeLevelRows != len(sources) {
		t.Errorf("free level rows = %d, want %d", st.FreeLevelRows, len(sources))
	}

	res2 := MSPBFS(g, sources, opt)
	if st := e.Stats(); st.FreeLevelRows != 0 {
		t.Errorf("free level rows = %d during second run, want 0 (all recycled)", st.FreeLevelRows)
	}
	for i, src := range res2.Sources {
		CheckLevels(t, fmt.Sprintf("recycled rows src=%d", src), res2.Levels[i], ReferenceLevels(g, src))
	}
	e.ReleaseLevels(res2.Levels...)
}

// TestBorrowLevelsScrubs: borrowLevels hands out all-NoLevel rows on the
// cold path and on the warm path, whatever a released row was left holding.
func TestBorrowLevelsScrubs(t *testing.T) {
	const n = 300
	e := NewEngine()
	defer e.Close()
	for _, path := range []string{"cold", "warm"} {
		row := e.borrowLevels(n)
		for v, lv := range row {
			if lv != NoLevel {
				t.Fatalf("%s row: vertex %d = %d, want NoLevel", path, v, lv)
			}
			row[v] = levelPoison
		}
		e.ReleaseLevels(row)
	}
	if st := e.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want one warm and one cold borrow", st.Hits, st.Misses)
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
	if st.FreePools != 0 || st.FreeShells != 0 || st.FreeStates != 0 ||
		st.FreeBitmaps != 0 || st.FreeLevelRows != 0 || st.FreeBytes != 0 {
		t.Errorf("arena not empty after Close: %+v", st)
	}

	res := MSPBFS(g, sources, opt)
	for i, src := range res.Sources {
		CheckLevels(t, fmt.Sprintf("closed-engine src=%d", src), res.Levels[i], ReferenceLevels(g, src))
	}
	e.ReleaseLevels(res.Levels...)
	st = e.Stats()
	if st.FreePools != 0 || st.FreeShells != 0 || st.FreeLevelRows != 0 {
		t.Errorf("closed engine cached returns: %+v", st)
	}
	if st.Borrowed != 0 {
		t.Errorf("borrowed = %d after closed-engine run, want 0", st.Borrowed)
	}
}
