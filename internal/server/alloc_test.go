//go:build !race

package server

import (
	"context"
	"runtime"
	"testing"

	msbfs "repro"
)

// The coalescer allocation tests pin the serving path's steady state: with
// the daemon's engine wired in, a batch allocates only what leaves with its
// requests — never a fresh worker pool or state array, and not its own
// sources / accumulators / target-index slices either, which a finished
// batch hands to the next. MaxBatch 1 and one caller make every Submit a
// lone batch on an idle graph, so AllocsPerRun sees exactly one request ->
// one batch per run. Excluded from -race builds (the detector inflates
// allocation counts).

func newAllocFixture(t *testing.T) (*Coalescer, *msbfs.Engine) {
	t.Helper()
	g := msbfs.GenerateUniform(4000, 8, 1)
	eng := msbfs.NewEngine(msbfs.Options{Workers: 2})
	c := NewCoalescer(g, Config{Workers: 2, MaxBatch: 1, Engine: eng}, NewMetrics(), nil)
	t.Cleanup(func() { c.Close(); eng.Close() })
	return c, eng
}

func TestCoalescerFlushAllocs(t *testing.T) {
	c, _ := newAllocFixture(t)
	ctx := context.Background()
	q := Query{Kind: KindCloseness, Source: 3}
	for i := 0; i < 4; i++ { // warm the engine's pool and arena
		if _, err := c.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.Submit(ctx, q); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	// Measured 9 allocs per submit+batch: the pending request and its
	// demux channel, the batch goroutine, the visitor closure, and the
	// traversal's fixed per-call overhead. Allocating the batch's scratch
	// slices per cut, as before they were reused, reads 17; a rebuilt state
	// array alone would add thousands.
	if allocs > 12 {
		t.Errorf("coalescer submit+batch: %.0f allocs/op, want <= 12", allocs)
	}
}

func TestCoalescerFlushAllocBytes(t *testing.T) {
	c, _ := newAllocFixture(t)
	ctx := context.Background()
	q := Query{Kind: KindBFS, Source: 5, Targets: []int{9}}
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	const reps = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if _, err := c.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / reps

	// One word-wide state array for the served graph; a warmed flush must
	// stay well under rebuilding even one.
	stateBytes := uint64(c.g.NumVertices()) * 8
	if perOp >= stateBytes {
		t.Errorf("warm flush allocates %d B/op, want < one state array (%d B): engine not wired through",
			perOp, stateBytes)
	}
}

// TestCoalescerEngineReuseAcrossFlushes checks the wiring end to end via
// the engine's own accounting: repeated flushes must hit the arena, and
// a drained coalescer must leave nothing checked out.
func TestCoalescerEngineReuseAcrossFlushes(t *testing.T) {
	c, eng := newAllocFixture(t)
	ctx := context.Background()
	if _, err := c.Submit(ctx, Query{Kind: KindCloseness, Source: 1}); err != nil {
		t.Fatal(err)
	}
	first := eng.Stats()
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, Query{Kind: KindCloseness, Source: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Hits <= first.Hits {
		t.Errorf("repeated flushes recorded no arena hits (%d -> %d)", first.Hits, st.Hits)
	}
	if st.Borrowed != 0 {
		t.Errorf("borrowed = %d between flushes, want 0", st.Borrowed)
	}
}
