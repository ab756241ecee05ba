package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/core"
)

// gateBackend wraps a Backend so that a test sees, and can hold, every
// batch the coalescer runs on it. Each RunBatch is recorded with the
// version, sources and options it traverses, and the greatest number
// running at once is kept — the count behind the two-slot bound. While hold is set, a
// RunBatch announces itself on started and does not traverse until the test
// closes its release channel: the policy tests script arrivals and finishes
// with that instead of with time.
type gateBackend struct {
	Backend
	hold    atomic.Bool
	started chan *gatedRun // one send per RunBatch while hold is set

	mu         sync.Mutex
	running    int
	maxRunning int
	runs       []*gatedRun // every batch, in start order
}

type gatedRun struct {
	version uint64
	sources []int
	opt     msbfs.Options
	release chan struct{}
	once    sync.Once
}

func (r *gatedRun) finish() { r.once.Do(func() { close(r.release) }) }

// newGate wraps inner; with hold, every batch waits for its finish call.
func newGate(inner Backend, hold bool) *gateBackend {
	// The buffer only has to outlast a test that stops listening (open);
	// no test starts this many batches while holding.
	b := &gateBackend{Backend: inner, started: make(chan *gatedRun, 1024)}
	b.hold.Store(hold)
	return b
}

type gateView struct {
	msbfs.Pinned
	b *gateBackend
}

func (b *gateBackend) Pin(version uint64) (msbfs.Pinned, error) {
	pin, err := b.Backend.Pin(version)
	if err != nil {
		return nil, err
	}
	return gateView{pin, b}, nil
}

func (v gateView) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	b := v.b
	run := &gatedRun{version: v.Version(), sources: slices.Clone(sources), opt: opt, release: make(chan struct{})}
	b.mu.Lock()
	b.running++
	b.maxRunning = max(b.maxRunning, b.running)
	b.runs = append(b.runs, run)
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.running--
		b.mu.Unlock()
	}()
	if b.hold.Load() {
		b.started <- run
		<-run.release
	}
	return v.Pinned.RunBatch(ctx, sources, opt, visit)
}

// next returns the next batch to enter RunBatch under hold.
func (b *gateBackend) next(t *testing.T) *gatedRun {
	t.Helper()
	select {
	case run := <-b.started:
		return run
	case <-time.After(10 * time.Second):
		t.Fatal("no batch started")
		return nil
	}
}

// open ends the holding: every held batch is released and later ones run
// freely.
func (b *gateBackend) open() {
	b.hold.Store(false)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, run := range b.runs {
		run.finish()
	}
}

// widths lists the width of every batch so far, in start order.
func (b *gateBackend) widths() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := make([]int, len(b.runs))
	for i, run := range b.runs {
		w[i] = len(run.sources)
	}
	return w
}

func (b *gateBackend) maxConcurrent() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxRunning
}

// settle waits until c holds exactly pending queued requests beside
// inFlight running batches. Submit decides under the coalescer's lock
// whether its arrival cuts a batch, so once the counts read as expected the
// policy has spoken for every request submitted so far.
func settle(t *testing.T, c *Coalescer, pending, inFlight int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.QueueLen() != pending || c.InFlight() != inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("coalescer at %d pending / %d in flight, want %d / %d",
				c.QueueLen(), c.InFlight(), pending, inFlight)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

type submitResult struct {
	q   Query
	ans Answer
	err error
}

// submitAsync submits q to c (a *Coalescer or an *Entry) from a goroutine of
// its own; the result arrives on the returned channel.
func submitAsync(ctx context.Context, c interface {
	Submit(context.Context, Query) (Answer, error)
}, q Query) <-chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		ans, err := c.Submit(ctx, q)
		out <- submitResult{q, ans, err}
	}()
	return out
}

// soloAnswer answers q by one single-source traversal of view, every field
// derived from the full distance array — the oracle a coalesced answer is
// compared with. n is the graph's vertex count.
func soloAnswer(t testing.TB, view msbfs.Pinned, n int, q Query) Answer {
	t.Helper()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = msbfs.NoLevel
	}
	// Each vertex is discovered once, so workers write disjoint cells.
	_, err := view.RunBatch(context.Background(), []int{q.Source}, msbfs.Options{Workers: 2},
		func(_, _, vertex, depth int) { levels[vertex] = int32(depth) })
	if err != nil {
		t.Fatalf("solo run of %+v: %v", q, err)
	}
	var want Answer
	var sum int64
	for _, d := range levels {
		if d == msbfs.NoLevel {
			continue
		}
		want.Visited++
		sum += int64(d)
		want.Eccentricity = max(want.Eccentricity, d)
		if q.Kind == KindKHop && int(d) <= q.Hops {
			want.Count++
		}
	}
	switch q.Kind {
	case KindBFS:
		for _, tgt := range q.Targets {
			want.Distances = append(want.Distances, levels[tgt])
		}
	case KindCloseness:
		want.Closeness = core.Tally{DepthSum: sum, Reached: want.Visited}.Closeness(n)
	case KindReachability:
		want.Reachable = levels[q.Targets[0]] != msbfs.NoLevel
	}
	return want
}

// checkAnswer reports every result field of got that differs from the solo
// oracle's. A khop answer carries only its count: a batch of nothing but
// khop requests stops at the widest radius, so what it visited beyond is
// not the whole component.
func checkAnswer(t testing.TB, q Query, got, want Answer) {
	t.Helper()
	if q.Kind == KindKHop {
		want.Visited, want.Eccentricity = got.Visited, got.Eccentricity
	}
	if got.Visited != want.Visited || got.Eccentricity != want.Eccentricity ||
		got.Closeness != want.Closeness || got.Reachable != want.Reachable ||
		got.Count != want.Count || !slices.Equal(got.Distances, want.Distances) {
		t.Errorf("%+v on version %d (batch width %d):\n got %+v\nsolo %+v",
			q, got.GraphVersion, got.BatchWidth, got, want)
	}
}
