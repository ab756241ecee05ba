package server

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
)

// countBackend wraps a Backend and counts the visitor calls of every batch
// run on it: one per (source, vertex) discovery the traversal made.
type countBackend struct {
	Backend
	visits atomic.Int64
}

type countView struct {
	msbfs.Pinned
	visits *atomic.Int64
}

func (b *countBackend) Pin(version uint64) (msbfs.Pinned, error) {
	pin, err := b.Backend.Pin(version)
	if err != nil {
		return nil, err
	}
	return countView{pin, &b.visits}, nil
}

func (v countView) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	return v.Pinned.RunBatch(ctx, sources, opt, func(w, i, vertex, depth int) {
		v.visits.Add(1)
		visit(w, i, vertex, depth)
	})
}

// TestKHopZeroHopsRunsOneLevel pins a lone hops-0 khop batch to one level
// on every backend the coalescer serves: its visitor sees the source and
// each of its neighbours once, and nothing further, where an unbounded
// traversal would walk the whole component.
func TestKHopZeroHopsRunsOneLevel(t *testing.T) {
	ctx := context.Background()
	g, err := msbfs.BuildGraph("kron:scale=10,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := cluster.StartInproc(ctx, 2,
		cluster.ShardOptions{Workers: 2, StepTimeout: cluster.DefaultInprocStepTimeout},
		cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	remote, err := ip.Coord.LoadGraph(ctx, "remote", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn := dyngraph.New(g, dyngraph.Config{})
	defer dyn.Close()

	for _, tc := range []struct {
		name    string
		backend Backend
	}{{"static", g}, {"dynamic", dyn}, {"cluster", remote}} {
		t.Run(tc.name, func(t *testing.T) {
			cb := &countBackend{Backend: tc.backend}
			c := NewCoalescer(cb, Config{Workers: 2}, NewMetrics(), nil)
			defer c.Close()
			for _, s := range []int{0, 3, 10, 500, g.NumVertices() - 1} {
				before := cb.visits.Load()
				ans, err := c.Submit(ctx, Query{Kind: KindKHop, Source: s})
				if err != nil {
					t.Fatalf("source %d: %v", s, err)
				}
				if ans.BatchWidth != 1 || ans.Count != 1 {
					t.Errorf("source %d: count %d in a batch of %d, want 1 alone", s, ans.Count, ans.BatchWidth)
				}
				if got, want := cb.visits.Load()-before, int64(1+len(g.Neighbors(s))); got != want {
					t.Errorf("source %d: %d visitor calls, want %d (itself and its neighbours)", s, got, want)
				}
			}
		})
	}
}

// TestKHopAnswerIgnoresBatchMates: a khop answer is the same whether its
// request runs alone, in a batch bounded by its radius, or beside a bfs
// request that makes the batch traverse whole components; it carries its
// count only.
func TestKHopAnswerIgnoresBatchMates(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t)
	gb := newGate(g, true)
	c := NewCoalescer(gb, Config{Workers: 2}, NewMetrics(), nil)
	defer c.Close()
	result := func(a Answer) Answer { // the fields a request's kind answers
		a.BatchWidth, a.Wait, a.Run, a.TraceID, a.GraphVersion = 0, 0, 0, 0, 0
		return a
	}
	for _, hops := range []int{0, 2} {
		khop := Query{Kind: KindKHop, Source: 3, Hops: hops}
		aloneCh := submitAsync(ctx, c, khop)
		lone := gb.next(t)
		lone.finish()
		alone := <-aloneCh

		// Two lone batches hold both slots; the khop and bfs requests
		// queue behind them and leave together at the first finish.
		holders := []<-chan submitResult{submitAsync(ctx, c, Query{Kind: KindCloseness, Source: 1})}
		h1 := gb.next(t)
		holders = append(holders, submitAsync(ctx, c, Query{Kind: KindCloseness, Source: 2}))
		h2 := gb.next(t)
		settle(t, c, 0, 2)
		mixedCh := submitAsync(ctx, c, khop)
		bfsCh := submitAsync(ctx, c, Query{Kind: KindBFS, Source: 5, Targets: []int{0}})
		settle(t, c, 2, 2)
		h1.finish()
		both := gb.next(t)
		both.finish()
		h2.finish()
		mixed, bfs := <-mixedCh, <-bfsCh
		for _, r := range append([]submitResult{alone, mixed, bfs}, <-holders[0], <-holders[1]) {
			if r.err != nil {
				t.Fatalf("%+v: %v", r.q, r.err)
			}
		}

		if want := max(hops, 1); lone.opt.MaxDepth != want || both.opt.MaxDepth != 0 {
			t.Errorf("hops %d: depth bounds %d alone, %d beside bfs; want %d and 0 (unbounded)",
				hops, lone.opt.MaxDepth, both.opt.MaxDepth, want)
		}
		if alone.ans.BatchWidth != 1 || mixed.ans.BatchWidth != 2 {
			t.Fatalf("hops %d: served %d and %d wide, want 1 and 2", hops, alone.ans.BatchWidth, mixed.ans.BatchWidth)
		}
		if !reflect.DeepEqual(result(alone.ans), result(mixed.ans)) {
			t.Errorf("hops %d: khop alone %+v, beside bfs %+v", hops, result(alone.ans), result(mixed.ans))
		}
		if want := g.NeighborhoodSizes([]int{3}, hops, msbfs.Options{})[0]; !reflect.DeepEqual(result(alone.ans), Answer{Count: want}) {
			t.Errorf("hops %d: khop answer %+v, want only count %d", hops, result(alone.ans), want)
		}
		if want := g.BFS(5, msbfs.Options{}).VisitedVertices; bfs.ans.Visited != want {
			t.Errorf("hops %d: bfs beside khop visited %d, want %d", hops, bfs.ans.Visited, want)
		}
	}
}
