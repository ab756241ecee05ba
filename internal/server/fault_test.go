package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
)

// panicOnce wraps a Backend so that the first RunBatch on any of its views
// panics — a stand-in for a kernel or visitor bug surfacing mid-batch.
type panicOnce struct {
	Backend
	fired atomic.Bool
}

type panicView struct {
	Pinned
	b *panicOnce
}

func (b *panicOnce) Pin(version uint64) (Pinned, error) {
	pin, err := b.Backend.Pin(version)
	if err != nil {
		return nil, err
	}
	return panicView{pin, b}, nil
}

func (v panicView) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	if v.b.fired.CompareAndSwap(false, true) {
		panic("injected batch fault")
	}
	return v.Pinned.RunBatch(ctx, sources, opt, visit)
}

// TestBatchPanicStaysPerRequest: a panicking batch costs its own requests a
// typed error and nothing else — a concurrent request on another graph of
// the same registry answers correctly, the next batch on the faulty graph
// succeeds, and no pin or arena borrow is left behind.
func TestBatchPanicStaysPerRequest(t *testing.T) {
	g := msbfs.GenerateUniform(300, 6, 4)
	const width = 3
	cfg := Config{Workers: 2, MaxBatch: width, FlushDeadline: time.Minute}

	for _, tc := range []struct {
		name string
		open func(e *Entry, cfg Config) (Backend, error)
	}{
		{"static", func(e *Entry, _ Config) (Backend, error) {
			return &panicOnce{Backend: e.G}, nil
		}},
		{"dynamic", func(e *Entry, _ Config) (Backend, error) {
			e.Dyn = dyngraph.New(e.G, dyngraph.Config{})
			return &panicOnce{Backend: dynBackend{e.Dyn}}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			faulty, err := reg.AddBackend("faulty", "fake", g, true, cfg, tc.open)
			if err != nil {
				t.Fatal(err)
			}
			healthy, err := reg.Add("healthy", g, true, Config{Workers: 2, MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}

			// One full-width batch on the faulty graph — cut by width, so
			// all three requests share the panicking traversal — beside one
			// request on the healthy graph.
			batchOn := func(e *Entry) []error {
				errs := make([]error, width)
				var wg sync.WaitGroup
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						var ans Answer
						ans, errs[i] = e.Submit(ctx, Query{Kind: KindCloseness, Source: i})
						if want := g.Closeness([]int{i}, msbfs.Options{})[0]; errs[i] == nil && ans.Closeness != want {
							t.Errorf("%s closeness(%d) = %v, library %v", e.Name, i, ans.Closeness, want)
						}
					}(i)
				}
				wg.Wait()
				return errs
			}
			var other sync.WaitGroup
			other.Add(1)
			go func() {
				defer other.Done()
				ans, err := healthy.Submit(context.Background(), Query{Kind: KindCloseness, Source: 7})
				if err != nil {
					t.Errorf("healthy graph beside a panicking batch: %v", err)
				} else if want := g.Closeness([]int{7}, msbfs.Options{})[0]; ans.Closeness != want {
					t.Errorf("healthy closeness = %v, library %v", ans.Closeness, want)
				}
			}()
			for i, err := range batchOn(faulty) {
				if !errors.Is(err, ErrBatchPanic) {
					t.Errorf("request %d of the panicking batch: err = %v, want ErrBatchPanic", i, err)
				}
			}
			other.Wait()

			// The coalescer survived: the next batch runs and answers.
			for i, err := range batchOn(faulty) {
				if err != nil {
					t.Errorf("request %d after the panic: %v", i, err)
				}
			}
			if n := faulty.Met.BatchErrors.Load(); n != 1 {
				t.Errorf("batch errors = %d, want 1", n)
			}

			faulty.Coal.Close() // waits for the batches' pin releases
			healthy.Coal.Close()
			if b := reg.Engine().Stats().Borrowed; b != 0 {
				t.Errorf("engine borrows outstanding after the panic: %d", b)
			}
			if faulty.Dyn != nil {
				if p := faulty.Dyn.Stats().PinnedNow; p != 0 {
					t.Errorf("snapshot pins outstanding after the panic: %d", p)
				}
			}
		})
	}

	// The HTTP layer has no arm for ErrBatchPanic on purpose: it is the
	// server's fault, so the default 500 is the right answer.
	rec := httptest.NewRecorder()
	(&Server{}).writeSubmitError(rec, fmt.Errorf("%w: boom", ErrBatchPanic))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("ErrBatchPanic mapped to %d, want 500", rec.Code)
	}
}
