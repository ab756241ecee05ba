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

// panicOnce wraps a Backend so that, once armed, the next RunBatch on any of
// its views panics — a stand-in for a kernel or visitor bug surfacing
// mid-batch.
type panicOnce struct {
	Backend
	armed atomic.Bool
}

type panicView struct {
	msbfs.Pinned
	b *panicOnce
}

func (b *panicOnce) Pin(version uint64) (msbfs.Pinned, error) {
	pin, err := b.Backend.Pin(version)
	if err != nil {
		return nil, err
	}
	return panicView{pin, b}, nil
}

func (v panicView) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	if v.b.armed.CompareAndSwap(true, false) {
		panic("injected batch fault")
	}
	return v.Pinned.RunBatch(ctx, sources, opt, visit)
}

// TestBatchPanicStaysPerRequest: a panicking batch costs its own requests a
// typed error and nothing else — a concurrent request on another graph of
// the same registry answers correctly, the requests queued behind the
// faulty batch (on a dynamic graph: pinned to a later version, one of them
// canceled while queued) are served by the next batch, and no pin or arena
// borrow is left behind.
func TestBatchPanicStaysPerRequest(t *testing.T) {
	g := msbfs.GenerateUniform(300, 6, 4)
	const width = 3
	cfg := Config{Workers: 2, MaxBatch: width}

	for _, tc := range []struct {
		name string
		open func(e *Entry) Backend
	}{
		{"static", func(e *Entry) Backend { return e.G }},
		{"dynamic", func(e *Entry) Backend {
			e.Dyn = dyngraph.New(e.G, dyngraph.Config{})
			return e.Dyn
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			defer reg.Close()
			var (
				fault *panicOnce
				gb    *gateBackend
			)
			faulty, err := reg.AddBackend("faulty", "fake", g, false, cfg, func(e *Entry, _ Config) (Backend, error) {
				fault = &panicOnce{Backend: tc.open(e)}
				gb = newGate(fault, true)
				return gb, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			healthy, err := reg.Add("healthy", g, true, Config{Workers: 2, MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			closeness := func(src int) Query { return Query{Kind: KindCloseness, Source: src} }

			// Two lone batches take the slots; behind them queue the three
			// requests of the batch that will panic, then — a version later
			// on the dynamic graph — one live request and one that its
			// caller abandons while it is queued.
			var ahead, victims []<-chan submitResult
			var lone []*gatedRun
			for i := 0; i < 2; i++ {
				ahead = append(ahead, submitAsync(ctx, faulty, closeness(i)))
				lone = append(lone, gb.next(t))
			}
			for i := 0; i < width; i++ {
				victims = append(victims, submitAsync(ctx, faulty, closeness(10+i)))
			}
			settle(t, faulty.Coal, width, 2)
			if faulty.Dyn != nil {
				if _, err := faulty.ApplyEdges([]msbfs.Edge{{U: 20, V: 299}, {U: 21, V: 150}}); err != nil {
					t.Fatal(err)
				}
			}
			behind := submitAsync(ctx, faulty, closeness(20))
			settle(t, faulty.Coal, width+1, 2)
			gone, abandon := context.WithCancel(ctx)
			abandoned := submitAsync(gone, faulty, closeness(21))
			settle(t, faulty.Coal, width+2, 2)
			abandon()
			if r := <-abandoned; !errors.Is(r.err, context.Canceled) {
				t.Errorf("abandoned request: err = %v, want context.Canceled", r.err)
			}

			// Let the lone batches finish; the first to do so cuts the three
			// victims into one batch, which is held, then armed.
			lone[0].finish()
			lone[1].finish()
			for i, ch := range ahead {
				if r := <-ch; r.err != nil {
					t.Errorf("request %d ahead of the panic: %v", i, r.err)
				}
			}
			settle(t, faulty.Coal, 2, 1)
			fault.armed.Store(true)

			var other sync.WaitGroup
			other.Add(1)
			go func() {
				defer other.Done()
				ans, err := healthy.Submit(ctx, closeness(7))
				if err != nil {
					t.Errorf("healthy graph beside a panicking batch: %v", err)
				} else if want := g.Closeness([]int{7}, msbfs.Options{})[0]; ans.Closeness != want {
					t.Errorf("healthy closeness = %v, library %v", ans.Closeness, want)
				}
			}()
			gb.open()
			for i, ch := range victims {
				if r := <-ch; !errors.Is(r.err, ErrBatchPanic) {
					t.Errorf("request %d of the panicking batch: err = %v, want ErrBatchPanic", i, r.err)
				}
			}
			other.Wait()

			// The coalescer survived: the request queued behind the panic is
			// served, alone (its neighbour was abandoned), on its version.
			r := <-behind
			if r.err != nil {
				t.Fatalf("request behind the panic: %v", r.err)
			}
			if r.ans.BatchWidth != 1 {
				t.Errorf("request behind the panic served %d wide, want 1", r.ans.BatchWidth)
			}
			view, err := fault.Backend.Pin(r.ans.GraphVersion)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, r.q, r.ans, soloAnswer(t, view, g.NumVertices(), r.q))
			view.Release()
			if n := faulty.Met.BatchErrors.Load(); n != 1 {
				t.Errorf("batch errors = %d, want 1", n)
			}
			if m := gb.maxConcurrent(); m > maxInFlight {
				t.Errorf("%d batches ran at once, want <= %d", m, maxInFlight)
			}

			faulty.Coal.Close() // waits for the batches' pin releases
			healthy.Coal.Close()
			if b := reg.Engine().Stats().Borrowed; b != 0 {
				t.Errorf("engine borrows outstanding after the panic: %d", b)
			}
			if faulty.Dyn != nil {
				if r.ans.GraphVersion != 2 {
					t.Errorf("request behind the panic served on version %d, want 2", r.ans.GraphVersion)
				}
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
