package server

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
)

// TestRaceSubmitCancelShutdown hammers one coalescer with 128 concurrent
// submitters, aggressive per-request timeouts, and a shutdown racing the
// traffic. Every Submit must return (an answer or a clean error), the
// drain must complete, and through all of it — cuts on arrival, cuts on
// finish, canceled requests dropped at the cut, the drain — the backend
// never sees more than two batches of the graph at once. Run under -race
// this is the subsystem's leak and data-race stress test.
func TestRaceSubmitCancelShutdown(t *testing.T) {
	g := msbfs.GenerateKronecker(9, 8, 3)
	n := g.NumVertices()
	met := NewMetrics()
	gb := newGate(g, false)
	c := NewCoalescer(gb, Config{
		Workers:    2,
		MaxBatch:   64,
		MaxPending: 256,
	}, met, nil)

	const (
		submitters = 128
		each       = 8
	)
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		failed   atomic.Int64
	)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				switch r.Intn(3) {
				case 0: // tight timeout: often cancels while queued
					ctx, cancel = context.WithTimeout(ctx, time.Duration(r.Intn(300))*time.Microsecond)
				case 1: // explicit cancellation racing the flush
					ctx, cancel = context.WithCancel(ctx)
					if r.Intn(2) == 0 {
						cancel()
					}
				}
				q := Query{Kind: KindCloseness, Source: r.Intn(n)}
				if r.Intn(2) == 0 {
					q = Query{Kind: KindKHop, Source: r.Intn(n), Hops: r.Intn(3)}
				}
				_, err := c.Submit(ctx, q)
				cancel()
				switch {
				case err == nil:
					answered.Add(1)
				case errors.Is(err, context.Canceled),
					errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, ErrQueueFull),
					errors.Is(err, ErrClosed):
					failed.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
				}
			}
		}(int64(s))
	}

	// Shut down while traffic is still flowing: once a quarter is answered
	// (or, should most of it fail, once the submitters are through).
	idle := make(chan struct{})
	go func() {
		wg.Wait()
		close(idle)
	}()
	for flowing := true; flowing && answered.Load() < submitters*each/4; {
		select {
		case <-idle:
			flowing = false
		case <-time.After(100 * time.Microsecond):
		}
	}
	c.Close()
	wg.Wait()
	// Close is idempotent and still drains.
	c.Close()

	total := answered.Load() + failed.Load()
	if total != submitters*each {
		t.Errorf("accounted %d outcomes, want %d", total, submitters*each)
	}
	m := gb.maxConcurrent()
	t.Logf("%d answered, %d failed, %d batches, at most %d at once", answered.Load(), failed.Load(), len(gb.widths()), m)
	if m > maxInFlight {
		t.Errorf("%d batches of one graph ran at once, want <= %d", m, maxInFlight)
	}
	if c.QueueLen() != 0 {
		t.Errorf("queue not drained: %d pending", c.QueueLen())
	}
}

// TestRaceManyCoalescers drives several graphs' coalescers concurrently
// through one registry, with the stats sampler and /metrics scrapes
// reading the metric tables, then closes the registry mid-flight.
func TestRaceManyCoalescers(t *testing.T) {
	cfg := Config{Workers: 2, MaxPending: 128}
	reg := NewRegistry()
	for i, spec := range []string{"uniform:n=300,degree=5,seed=1", "uniform:n=200,degree=4,seed=2"} {
		if _, err := addSpec(reg, []string{"a", "b"}[i], spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	stop := reg.StartStatsSampler(time.Millisecond)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			for _, tb := range reg.metricTables() {
				tb.writeTo(io.Discard)
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				name := []string{"a", "b"}[r.Intn(2)]
				e, ok := reg.Get(name)
				if !ok {
					t.Errorf("graph %q disappeared", name)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, err := e.Submit(ctx, Query{Kind: KindKHop, Source: r.Intn(e.G.NumVertices()), Hops: 2})
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit on %q: %v", name, err)
				}
			}
		}(int64(w))
	}
	time.Sleep(2 * time.Millisecond)
	reg.Close()
	wg.Wait()
}
