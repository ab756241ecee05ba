package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
)

// countingGraph is a static Backend that counts multi-source batch
// executions — the injected batch-run counter the coalescing assertions
// rely on. Pin must return the wrapper, not the embedded Graph, or the
// count is bypassed.
type countingGraph struct {
	*msbfs.Graph
	batches atomic.Int64
}

func (c *countingGraph) Pin(uint64) (Pinned, error) { return c, nil }

func (c *countingGraph) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	c.batches.Add(1)
	return c.Graph.RunBatch(ctx, sources, opt, visit)
}

func testGraph(t *testing.T) *msbfs.Graph {
	t.Helper()
	return msbfs.GenerateKronecker(10, 8, 7)
}

// TestCoalescingEndToEnd is the tentpole acceptance test: 128 concurrent
// single-source requests are served by at most ceil(128/(64*BatchWords))+1
// batch executions, and every per-request answer equals a direct g.BFS of
// its source.
func TestCoalescingEndToEnd(t *testing.T) {
	g := testGraph(t)
	cg := &countingGraph{Graph: g}
	const reqs = 128
	cfg := Config{
		Workers:       2,
		BatchWords:    1, // flush width 64
		FlushDeadline: time.Second,
		MaxPending:    reqs,
	}
	c := NewCoalescer(cg, cfg, NewMetrics(), nil)
	defer c.Close()

	n := g.NumVertices()
	targets := []int{0, n / 3, n / 2, n - 1, n / 3} // includes a duplicate
	type got struct {
		src int
		ans Answer
		err error
	}
	results := make([]got, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := (i * 37) % n
			ans, err := c.Submit(context.Background(),
				Query{Kind: KindBFS, Source: src, Targets: targets})
			results[i] = got{src: src, ans: ans, err: err}
		}(i)
	}
	wg.Wait()

	maxBatches := int64((reqs+63)/64 + 1)
	if b := cg.batches.Load(); b > maxBatches || b == 0 {
		t.Errorf("served %d requests with %d batches, want 1..%d", reqs, cg.batches.Load(), maxBatches)
	}
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("source %d: %v", r.src, r.err)
		}
		direct := g.BFS(r.src, msbfs.Options{RecordLevels: true})
		if r.ans.Visited != direct.VisitedVertices {
			t.Errorf("source %d: visited %d, direct BFS %d", r.src, r.ans.Visited, direct.VisitedVertices)
		}
		var ecc int32
		for _, d := range direct.Levels {
			if d > ecc {
				ecc = d
			}
		}
		if r.ans.Eccentricity != ecc {
			t.Errorf("source %d: eccentricity %d, direct %d", r.src, r.ans.Eccentricity, ecc)
		}
		for j, tgt := range targets {
			if r.ans.Distances[j] != direct.Levels[tgt] {
				t.Errorf("source %d: dist[%d]=%d, direct %d", r.src, tgt, r.ans.Distances[j], direct.Levels[tgt])
			}
		}
		if r.ans.BatchWidth < 1 || r.ans.BatchWidth > 64 {
			t.Errorf("source %d: batch width %d outside [1, 64]", r.src, r.ans.BatchWidth)
		}
	}
}

// TestDeadlineFlush proves the fill-or-flush deadline path on logical time:
// a partial batch is dispatched exactly when the oldest request has waited
// FlushDeadline — not a tick before — with no wall-clock sleeps involved.
func TestDeadlineFlush(t *testing.T) {
	cg := &countingGraph{Graph: testGraph(t)}
	clk := newFakeClock()
	c := NewCoalescer(cg, Config{
		Workers:       2,
		BatchWords:    2, // flush width 128, never reached here
		FlushDeadline: 5 * time.Millisecond,
	}, NewMetrics(), nil)
	c.clk = clk
	defer c.Close()

	var wg sync.WaitGroup
	answers := make([]Answer, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], _ = c.Submit(context.Background(), Query{Kind: KindKHop, Source: i, Hops: 2})
		}(i)
	}
	for c.QueueLen() < 3 {
		time.Sleep(50 * time.Microsecond) // scheduling only, not the deadline
	}

	// One logical tick short of the deadline: nothing may flush.
	clk.Advance(c.cfg.FlushDeadline - time.Nanosecond)
	if b := cg.batches.Load(); b != 0 {
		t.Fatalf("flushed %d batches before the deadline elapsed", b)
	}
	// The final nanosecond fires the flush synchronously inside Advance.
	clk.Advance(time.Nanosecond)
	wg.Wait()
	if b := cg.batches.Load(); b != 1 {
		t.Errorf("3 sub-width requests ran %d batches, want 1 (deadline flush)", b)
	}
	for i, a := range answers {
		direct := cg.Graph.NeighborhoodSizes([]int{i}, 2, msbfs.Options{})
		if a.Count != direct[0] {
			t.Errorf("khop(%d, 2) = %d, direct %d", i, a.Count, direct[0])
		}
		if a.Wait != c.cfg.FlushDeadline {
			t.Errorf("request %d logical wait = %v, want exactly %v", i, a.Wait, c.cfg.FlushDeadline)
		}
		if a.BatchWidth != 3 {
			t.Errorf("request %d batch width = %d, want 3", i, a.BatchWidth)
		}
	}
}

// TestWidthFlushCancelsDeadline proves a full-width cut disarms the pending
// deadline timer: advancing logical time afterwards must not dispatch a
// second, empty flush.
func TestWidthFlushCancelsDeadline(t *testing.T) {
	cg := &countingGraph{Graph: testGraph(t)}
	clk := newFakeClock()
	c := NewCoalescer(cg, Config{
		Workers:       2,
		MaxBatch:      4,
		FlushDeadline: 5 * time.Millisecond,
	}, NewMetrics(), nil)
	c.clk = clk
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if b := cg.batches.Load(); b != 1 {
		t.Fatalf("4 requests at width 4 ran %d batches, want 1 width flush", b)
	}
	clk.Advance(time.Second) // any stale timer would fire here
	if b := cg.batches.Load(); b != 1 {
		t.Errorf("stale deadline timer dispatched an extra batch (total %d)", b)
	}
	if n := clk.pendingTimers(); n != 0 {
		t.Errorf("%d flush timers still armed after the width flush", n)
	}
}

// TestDeadlineTimerPerBatch proves the deadline re-arms for each new batch:
// two generations of sub-width traffic flush as two logical-deadline batches.
func TestDeadlineTimerPerBatch(t *testing.T) {
	cg := &countingGraph{Graph: testGraph(t)}
	clk := newFakeClock()
	c := NewCoalescer(cg, Config{
		Workers:       1,
		MaxBatch:      100,
		FlushDeadline: 2 * time.Millisecond,
	}, NewMetrics(), nil)
	c.clk = clk
	defer c.Close()

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i}); err != nil {
					t.Errorf("round %d request %d: %v", round, i, err)
				}
			}(i)
		}
		for c.QueueLen() < 2 {
			time.Sleep(50 * time.Microsecond)
		}
		clk.Advance(c.cfg.FlushDeadline)
		wg.Wait()
		if b := cg.batches.Load(); b != int64(round+1) {
			t.Fatalf("after round %d: %d batches, want %d", round, b, round+1)
		}
	}
}

// TestUnbatchedBaseline pins the MaxBatch=1 per-request serving mode that
// the load generator measures the coalescer against.
func TestUnbatchedBaseline(t *testing.T) {
	cg := &countingGraph{Graph: testGraph(t)}
	c := NewCoalescer(cg, Config{Workers: 1, MaxBatch: 1}, NewMetrics(), nil)
	defer c.Close()
	for i := 0; i < 5; i++ {
		ans, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i})
		if err != nil {
			t.Fatal(err)
		}
		if ans.BatchWidth != 1 {
			t.Errorf("request %d: batch width %d in unbatched mode", i, ans.BatchWidth)
		}
	}
	if b := cg.batches.Load(); b != 5 {
		t.Errorf("5 unbatched requests ran %d batches, want 5", b)
	}
}

// TestKindsMatchLibrary checks every query kind against its library
// counterpart through one mixed batch.
func TestKindsMatchLibrary(t *testing.T) {
	g := testGraph(t)
	c := NewCoalescer(g, Config{
		Workers:       2,
		FlushDeadline: 2 * time.Millisecond,
	}, NewMetrics(), nil)
	defer c.Close()

	n := g.NumVertices()
	queries := []Query{
		{Kind: KindCloseness, Source: 1},
		{Kind: KindReachability, Source: 2, Targets: []int{n - 1}},
		{Kind: KindKHop, Source: 3, Hops: 3},
		{Kind: KindBFS, Source: 4, Targets: []int{0, 5}},
	}
	answers := make([]Answer, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			var err error
			answers[i], err = c.Submit(context.Background(), q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i, q)
	}
	wg.Wait()

	if want := g.Closeness([]int{1}, msbfs.Options{})[0]; answers[0].Closeness != want {
		t.Errorf("closeness = %v, library %v", answers[0].Closeness, want)
	}
	if want := g.Reachable([]int{2}, n-1, msbfs.Options{})[0]; answers[1].Reachable != want {
		t.Errorf("reachable = %v, library %v", answers[1].Reachable, want)
	}
	if want := g.NeighborhoodSizes([]int{3}, 3, msbfs.Options{})[0]; answers[2].Count != want {
		t.Errorf("khop = %d, library %d", answers[2].Count, want)
	}
	direct := g.BFS(4, msbfs.Options{RecordLevels: true})
	for j, tgt := range []int{0, 5} {
		if answers[3].Distances[j] != direct.Levels[tgt] {
			t.Errorf("dist[%d] = %d, library %d", tgt, answers[3].Distances[j], direct.Levels[tgt])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	g := testGraph(t)
	c := NewCoalescer(g, Config{}, NewMetrics(), nil)
	defer c.Close()
	n := g.NumVertices()
	bad := []Query{
		{Kind: KindBFS, Source: -1},
		{Kind: KindBFS, Source: n},
		{Kind: KindBFS, Source: 0, Targets: []int{n}},
		{Kind: KindBFS, Source: 0, Targets: make([]int, MaxTargets+1)},
		{Kind: KindReachability, Source: 0},
		{Kind: KindReachability, Source: 0, Targets: []int{1, 2}},
		{Kind: KindKHop, Source: 0, Hops: -2},
		{Kind: "pagerank", Source: 0},
	}
	for _, q := range bad {
		if _, err := c.Submit(context.Background(), q); !errors.Is(err, ErrBadRequest) {
			t.Errorf("query %+v: err = %v, want ErrBadRequest", q, err)
		}
	}
}

func TestQueueFullAndRetry(t *testing.T) {
	g := testGraph(t)
	met := NewMetrics()
	c := NewCoalescer(g, Config{
		Workers:       1,
		MaxBatch:      100, // never width-flushes in this test
		MaxPending:    2,
		FlushDeadline: 30 * time.Millisecond,
	}, met, nil)
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i}); err != nil {
				t.Errorf("queued request %d: %v", i, err)
			}
		}(i)
	}
	// Wait for both to be queued, then overflow.
	for c.QueueLen() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: 5}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	wg.Wait()
	if met.Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", met.Rejected.Load())
	}
}

func TestSubmitCancellation(t *testing.T) {
	g := testGraph(t)
	c := NewCoalescer(g, Config{
		Workers:       1,
		MaxBatch:      100,
		FlushDeadline: 20 * time.Millisecond,
	}, NewMetrics(), nil)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Submit(ctx, Query{Kind: KindCloseness, Source: 0}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled submit: err = %v, want context.Canceled", err)
	}
	// A canceled request must not wedge the batch for live ones.
	live, err := c.Submit(context.Background(), Query{Kind: KindKHop, Source: 1, Hops: 1})
	if err != nil {
		t.Fatalf("live request after cancellation: %v", err)
	}
	if live.Count < 1 {
		t.Errorf("live request count = %d", live.Count)
	}
}

func TestCloseDrainsPending(t *testing.T) {
	cg := &countingGraph{Graph: testGraph(t)}
	c := NewCoalescer(cg, Config{
		Workers:       1,
		MaxBatch:      100,
		FlushDeadline: time.Minute, // only Close can flush
	}, NewMetrics(), nil)

	const k = 7
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i})
		}(i)
	}
	for c.QueueLen() < k {
		time.Sleep(100 * time.Microsecond)
	}
	c.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("drained request %d: %v", i, err)
		}
	}
	if b := cg.batches.Load(); b != 1 {
		t.Errorf("drain ran %d batches, want 1", b)
	}
	if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit: err = %v, want ErrClosed", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := testGraph(t)
	met := NewMetrics()
	edges := g.NewEdgeCounter()
	c := NewCoalescer(g, Config{
		Workers:       2,
		FlushDeadline: 2 * time.Millisecond,
	}, met, edges.EdgesForAll)

	const k = 10
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	c.Close()

	if met.Requests.Load() != k || met.Sources.Load() != k {
		t.Errorf("requests/sources = %d/%d, want %d", met.Requests.Load(), met.Sources.Load(), k)
	}
	if met.Batches.Load() < 1 || met.MeanBatchWidth() <= 1 {
		t.Errorf("batches=%d mean width=%.1f, want coalescing", met.Batches.Load(), met.MeanBatchWidth())
	}
	if met.Latency.Count() != k {
		t.Errorf("latency observations = %d, want %d", met.Latency.Count(), k)
	}
	if met.Edges.Load() <= 0 || met.GTEPS() <= 0 {
		t.Errorf("edges=%d gteps=%f, want positive", met.Edges.Load(), met.GTEPS())
	}
}

// TestRandomizedKindsAgainstLibrary cross-checks a random mixed workload
// against per-source library calls.
func TestRandomizedKindsAgainstLibrary(t *testing.T) {
	g := msbfs.GenerateUniform(500, 4, 3) // sparse: has unreachable pairs
	c := NewCoalescer(g, Config{Workers: 2, FlushDeadline: time.Millisecond}, NewMetrics(), nil)
	defer c.Close()
	r := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(src, tgt, hops int) {
			defer wg.Done()
			ans, err := c.Submit(context.Background(),
				Query{Kind: KindReachability, Source: src, Targets: []int{tgt}})
			if err != nil {
				t.Errorf("reach(%d, %d): %v", src, tgt, err)
				return
			}
			if want := g.Reachable([]int{src}, tgt, msbfs.Options{})[0]; ans.Reachable != want {
				t.Errorf("reach(%d, %d) = %v, library %v", src, tgt, ans.Reachable, want)
			}
		}(r.Intn(n), r.Intn(n), r.Intn(4))
	}
	wg.Wait()
}
