package server

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	msbfs "repro"
)

func testGraph(t *testing.T) *msbfs.Graph {
	t.Helper()
	return msbfs.GenerateKronecker(10, 8, 7)
}

// TestCoalescingEndToEnd is the serving layer's acceptance test: 128
// concurrent single-source requests that arrive while the graph's two slots
// are busy are served by four batch executions — the two lone ones that
// found the graph idle, then 64 and 62 wide — and every per-request answer
// equals a direct g.BFS of its source.
func TestCoalescingEndToEnd(t *testing.T) {
	g := testGraph(t)
	gb := newGate(g, true)
	const reqs = 128
	c := NewCoalescer(gb, Config{
		Workers:    2,
		MaxBatch:   64,
		MaxPending: reqs,
	}, NewMetrics(), nil)
	defer c.Close()

	n := g.NumVertices()
	targets := []int{0, n / 3, n / 2, n - 1, n / 3} // includes a duplicate
	results := make([]<-chan submitResult, reqs)
	for i := range results {
		results[i] = submitAsync(context.Background(), c,
			Query{Kind: KindBFS, Source: (i * 37) % n, Targets: targets})
	}
	settle(t, c, reqs-2, 2)
	// Both lone batches, then the first cut behind them, enter the gate
	// before it opens, so the start order the widths read is fixed.
	first := gb.next(t)
	gb.next(t)
	first.finish()
	gb.next(t)
	gb.open()

	for _, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("source %d: %v", r.q.Source, r.err)
		}
		direct := g.BFS(r.q.Source, msbfs.Options{RecordLevels: true})
		if r.ans.Visited != direct.VisitedVertices {
			t.Errorf("source %d: visited %d, direct BFS %d", r.q.Source, r.ans.Visited, direct.VisitedVertices)
		}
		var ecc int32
		for _, d := range direct.Levels {
			if d > ecc {
				ecc = d
			}
		}
		if r.ans.Eccentricity != ecc {
			t.Errorf("source %d: eccentricity %d, direct %d", r.q.Source, r.ans.Eccentricity, ecc)
		}
		for j, tgt := range targets {
			if r.ans.Distances[j] != direct.Levels[tgt] {
				t.Errorf("source %d: dist[%d]=%d, direct %d", r.q.Source, tgt, r.ans.Distances[j], direct.Levels[tgt])
			}
		}
	}
	if w := gb.widths(); !slices.Equal(w, []int{1, 1, 64, 62}) {
		t.Errorf("served %d requests in batches of %v, want [1 1 64 62]", reqs, w)
	}
}

// TestNaturalBatchingPolicy scripts arrivals and finishes against held
// batches and reads the cut policy off the result: an idle graph runs a
// lone request at once; a second batch starts beside the first once it is
// as wide; arrivals while both slots are busy accumulate; a finish cuts
// them; beside a 3-wide batch, two pending requests wait for a third; and
// beside a lone batch that followed a 3-wide one, so do they.
func TestNaturalBatchingPolicy(t *testing.T) {
	gb := newGate(testGraph(t), true)
	c := NewCoalescer(gb, Config{Workers: 1, MaxBatch: 8}, NewMetrics(), nil)
	defer c.Close()
	ctx := context.Background()
	var results []<-chan submitResult
	submit := func(k int) {
		for i := 0; i < k; i++ {
			results = append(results, submitAsync(ctx, c, Query{Kind: KindCloseness, Source: len(results)}))
		}
	}

	submit(1) // idle: cut alone, at once
	x1 := gb.next(t)
	settle(t, c, 0, 1)
	submit(1) // as wide as what is running: takes the second slot
	x2 := gb.next(t)
	settle(t, c, 0, 2)
	submit(3) // both slots busy: accumulate
	settle(t, c, 3, 2)

	x1.finish() // a finish cuts what accumulated
	x3 := gb.next(t)
	settle(t, c, 0, 2)
	x2.finish()
	settle(t, c, 0, 1)
	submit(2) // narrower than the running batch: wait
	settle(t, c, 2, 1)
	submit(1) // now as wide: cut
	x4 := gb.next(t)
	settle(t, c, 0, 2)
	x3.finish()
	x4.finish()
	settle(t, c, 0, 0)

	submit(1) // idle again: alone, at once
	x5 := gb.next(t)
	settle(t, c, 0, 1)
	submit(2) // wider than the lone batch, narrower than the one before it: wait
	settle(t, c, 2, 1)
	submit(1)
	x6 := gb.next(t)
	settle(t, c, 0, 2)
	x5.finish()
	x6.finish()

	for i, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want := 3
		if i < 2 || i == 8 {
			want = 1
		}
		if r.ans.BatchWidth != want {
			t.Errorf("request %d served %d wide, want %d", i, r.ans.BatchWidth, want)
		}
	}
	if w := gb.widths(); !slices.Equal(w, []int{1, 1, 3, 3, 1, 3}) {
		t.Errorf("batches of %v, want [1 1 3 3 1 3]", w)
	}
}

// TestFinishCutsAtMostMaxBatch: a queue deeper than MaxBatch leaves in
// MaxBatch-wide cuts, one per freed slot, never more than two at once.
func TestFinishCutsAtMostMaxBatch(t *testing.T) {
	g := testGraph(t)
	gb := newGate(g, true)
	c := NewCoalescer(gb, Config{Workers: 1, MaxBatch: 4, MaxPending: 16}, NewMetrics(), nil)
	defer c.Close()
	var results []<-chan submitResult
	for i := 0; i < 11; i++ {
		results = append(results, submitAsync(context.Background(), c, Query{Kind: KindKHop, Source: i, Hops: 2}))
		if i < 2 {
			settle(t, c, 0, i+1) // the first two take the slots, one each
		}
	}
	settle(t, c, 9, 2)
	x1, x2 := gb.next(t), gb.next(t)

	x1.finish() // frees a slot: 4 of the 9 go
	x3 := gb.next(t)
	settle(t, c, 5, 2)
	x2.finish() // 4 more, as wide as the 4 running
	x4 := gb.next(t)
	settle(t, c, 1, 2)
	x3.finish() // the last one is narrower than the 4 running: it waits
	settle(t, c, 1, 1)
	x4.finish() // nothing running: it goes alone
	gb.next(t).finish()

	for i, ch := range results {
		if r := <-ch; r.err != nil {
			t.Errorf("request %d: %v", i, r.err)
		} else if want := g.NeighborhoodSizes([]int{r.q.Source}, 2, msbfs.Options{})[0]; r.ans.Count != want {
			t.Errorf("khop(%d, 2) = %d, direct %d", r.q.Source, r.ans.Count, want)
		}
	}
	if w := gb.widths(); !slices.Equal(w, []int{1, 1, 4, 4, 1}) {
		t.Errorf("batches of %v, want [1 1 4 4 1]", w)
	}
	if m := gb.maxConcurrent(); m != maxInFlight {
		t.Errorf("%d batches ran at once, want %d", m, maxInFlight)
	}
}

// TestCutWordsFollowWidth pins MaxBatch as the one serving width knob: 100
// callers queued behind two held lone batches leave in one 100-wide cut
// under MaxBatch 128, and the coalescer leaves Options.BatchWords 0, so the
// library sizes the cut's rows by its sources (two words here).
func TestCutWordsFollowWidth(t *testing.T) {
	g := testGraph(t)
	gb := newGate(g, true)
	const callers = 100
	c := NewCoalescer(gb, Config{Workers: 2, MaxBatch: 128, MaxPending: 2 + callers}, NewMetrics(), nil)
	defer c.Close()
	n := g.NumVertices()
	var results []<-chan submitResult
	submit := func(k int) {
		for i := 0; i < k; i++ {
			results = append(results, submitAsync(context.Background(), c,
				Query{Kind: KindCloseness, Source: (len(results) * 37) % n}))
		}
	}

	submit(1)
	lone := gb.next(t)
	submit(1)
	gb.next(t)
	settle(t, c, 0, 2)
	submit(callers)
	settle(t, c, callers, 2)
	lone.finish()
	wide := gb.next(t)
	if len(wide.sources) != callers || wide.opt.BatchWords != 0 {
		t.Errorf("cut of %d sources with BatchWords %d, want %d with 0",
			len(wide.sources), wide.opt.BatchWords, callers)
	}
	gb.open()
	for i, ch := range results {
		if r := <-ch; r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	if w := gb.widths(); !slices.Equal(w, []int{1, 1, callers}) {
		t.Errorf("batch widths %v, want [1 1 %d]", w, callers)
	}
}

// TestUnbatchedBaseline pins the MaxBatch=1 per-request serving mode that
// the load generator measures the coalescer against.
func TestUnbatchedBaseline(t *testing.T) {
	gb := newGate(testGraph(t), false)
	c := NewCoalescer(gb, Config{Workers: 1, MaxBatch: 1}, NewMetrics(), nil)
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
	if b := len(gb.widths()); b != 5 {
		t.Errorf("5 unbatched requests ran %d batches, want 5", b)
	}
}

// TestKindsMatchLibrary checks every query kind against its library
// counterpart through one mixed batch: closeness, reachability and khop
// against their analytics, every eccentricity against Eccentricities, and
// bfs distances, duplicate targets included, against a DistanceMatrix row.
func TestKindsMatchLibrary(t *testing.T) {
	g := testGraph(t)
	c := NewCoalescer(g, Config{Workers: 2}, NewMetrics(), nil)
	defer c.Close()

	n := g.NumVertices()
	queries := []Query{
		{Kind: KindCloseness, Source: 1},
		{Kind: KindReachability, Source: 2, Targets: []int{n - 1}},
		{Kind: KindKHop, Source: 3, Hops: 3},
		{Kind: KindBFS, Source: 4, Targets: []int{0, 5}},
		{Kind: KindBFS, Source: 6, Targets: []int{7, 0, 7, n - 1, 0}},
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
	for i, q := range queries {
		if q.Kind == KindKHop {
			continue // a khop answer carries only its count
		}
		if want := g.Eccentricities([]int{q.Source}, msbfs.Options{})[0]; answers[i].Eccentricity != want {
			t.Errorf("query %d: eccentricity %d, library %d", i, answers[i].Eccentricity, want)
		}
		if q.Kind != KindBFS {
			continue
		}
		// Row 0 of the matrix over the source and the targets is the
		// source's distance to each target, repeats included.
		want := g.DistanceMatrix(append([]int{q.Source}, q.Targets...), msbfs.Options{Workers: 2})[0][1:]
		if !slices.Equal(answers[i].Distances, want) {
			t.Errorf("query %d: distances %v, library %v", i, answers[i].Distances, want)
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

// TestQueueFullAndRetry: MaxPending is one number over the graph's admitted
// requests, queued or running — two in held batches plus one pending fill a
// bound of three — and a rejected request is admitted again once a batch
// has finished.
func TestQueueFullAndRetry(t *testing.T) {
	gb := newGate(testGraph(t), true)
	met := NewMetrics()
	c := NewCoalescer(gb, Config{Workers: 1, MaxBatch: 100, MaxPending: 3}, met, nil)
	defer c.Close()
	ctx := context.Background()

	var admitted []<-chan submitResult
	for i := 0; i < 3; i++ {
		admitted = append(admitted, submitAsync(ctx, c, Query{Kind: KindCloseness, Source: i}))
		settle(t, c, max(0, i-1), min(i+1, 2))
	}
	if _, err := c.Submit(ctx, Query{Kind: KindCloseness, Source: 5}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if met.Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", met.Rejected.Load())
	}

	gb.next(t).finish()
	settle(t, c, 0, 2) // the finished batch's slot went to the pending request
	retry := submitAsync(ctx, c, Query{Kind: KindCloseness, Source: 5})
	settle(t, c, 1, 2)
	gb.open()
	for i, ch := range append(admitted, retry) {
		if r := <-ch; r.err != nil {
			t.Errorf("request %d after the overflow: %v", i, r.err)
		}
	}
}

func TestSubmitCancellation(t *testing.T) {
	g := testGraph(t)
	c := NewCoalescer(g, Config{Workers: 1, MaxBatch: 100}, NewMetrics(), nil)
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

// TestCloseDrainsPending: Close serves what is queued through the same
// bounded path as live traffic — MaxBatch-wide cuts, two at once — and not
// as one oversize batch.
func TestCloseDrainsPending(t *testing.T) {
	gb := newGate(testGraph(t), true)
	c := NewCoalescer(gb, Config{Workers: 1, MaxBatch: 4, MaxPending: 16}, NewMetrics(), nil)

	const k = 9
	var results []<-chan submitResult
	for i := 0; i < k; i++ {
		results = append(results, submitAsync(context.Background(), c, Query{Kind: KindCloseness, Source: i}))
	}
	settle(t, c, k-2, 2)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with batches held and requests queued")
	case <-time.After(5 * time.Millisecond):
	}
	gb.open()
	<-closed
	for i, ch := range results {
		if r := <-ch; r.err != nil {
			t.Errorf("drained request %d: %v", i, r.err)
		}
	}
	if w := gb.widths(); !slices.Equal(w, []int{1, 1, 4, 3}) {
		t.Errorf("drain ran batches of %v, want [1 1 4 3]", w)
	}
	if m := gb.maxConcurrent(); m > maxInFlight {
		t.Errorf("drain ran %d batches at once, want <= %d", m, maxInFlight)
	}
	if _, err := c.Submit(context.Background(), Query{Kind: KindCloseness, Source: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit: err = %v, want ErrClosed", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := testGraph(t)
	gb := newGate(g, true)
	met := NewMetrics()
	edges := g.NewEdgeCounter()
	c := NewCoalescer(gb, Config{Workers: 2}, met, edges.EdgesForAll)

	const k = 10
	var results []<-chan submitResult
	for i := 0; i < k; i++ {
		results = append(results, submitAsync(context.Background(), c, Query{Kind: KindCloseness, Source: i}))
	}
	settle(t, c, k-2, 2)
	gb.open()
	for _, ch := range results {
		if r := <-ch; r.err != nil {
			t.Error(r.err)
		}
	}
	c.Close()

	if met.Requests.Load() != k || met.Sources.Load() != k {
		t.Errorf("requests/sources = %d/%d, want %d", met.Requests.Load(), met.Sources.Load(), k)
	}
	if met.Batches.Load() != 3 || met.BatchWidth.Max() != k-2 {
		t.Errorf("batches=%d widest=%d, want 3 batches, the widest %d", met.Batches.Load(), met.BatchWidth.Max(), k-2)
	}
	if met.Latency.Count() != k {
		t.Errorf("latency observations = %d, want %d", met.Latency.Count(), k)
	}
	if met.Edges.Load() <= 0 || met.RunNanos.Load() <= 0 {
		t.Errorf("edges=%d run=%dns, want positive", met.Edges.Load(), met.RunNanos.Load())
	}
}

// TestRandomizedKindsAgainstLibrary cross-checks a random mixed workload
// against per-source library calls.
func TestRandomizedKindsAgainstLibrary(t *testing.T) {
	g := msbfs.GenerateUniform(500, 4, 3) // sparse: has unreachable pairs
	c := NewCoalescer(g, Config{Workers: 2}, NewMetrics(), nil)
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
