package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
)

// TestCoalescerMetamorphic is the batching policy's safety net: however the
// coalescer groups, delays or splits requests, each answer must equal a
// solo traversal of the same source on the version the answer reports.
// Seeded random interleavings of submits of every kind, submits abandoned
// by their caller, edge ingests and submits pinned to an older version run
// against a static and a dynamic backend; afterwards every answer is
// checked against the solo oracle, and the run must have kept to two
// batches at a time and left no pin or arena borrow behind. The dynamic
// run publishes far more versions than dyngraph retains, so the test pins
// each version as it is published and serves the oracle from those pins.
func TestCoalescerMetamorphic(t *testing.T) {
	const (
		n   = 240
		ops = 300
	)
	for _, dynamic := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("static/seed=%d", seed)
			if dynamic {
				name = fmt.Sprintf("dynamic/seed=%d", seed)
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				g := msbfs.GenerateUniform(n, 2, uint64(seed)) // sparse: ingest changes reachability
				eng := msbfs.NewEngine(msbfs.Options{Workers: 2})
				defer eng.Close()
				var (
					inner Backend = g
					dyn   *dyngraph.DynGraph
					// views holds the oracle's own pin of every version
					// published; a pinned snapshot outlives its eviction.
					views = map[uint64]msbfs.Pinned{}
				)
				pinView := func() {
					ver := uint64(0)
					if dynamic {
						ver = dyn.Version()
					}
					if views[ver] != nil {
						return
					}
					view, err := inner.Pin(ver)
					if err != nil {
						t.Fatalf("oracle pin of version %d: %v", ver, err)
					}
					views[ver] = view
				}
				if dynamic {
					dyn = dyngraph.New(g, dyngraph.Config{})
					defer dyn.Close()
					inner = dyn
				}
				pinView()
				gb := newGate(inner, false)
				c := NewCoalescer(gb, Config{Workers: 2, MaxBatch: 8, MaxPending: ops, Engine: eng}, NewMetrics(), nil)

				var results []<-chan submitResult
				abandoned := map[int]bool{}
				for i := 0; i < ops; i++ {
					q := Query{Source: r.Intn(n)}
					switch r.Intn(4) {
					case 0:
						q.Kind, q.Targets = KindBFS, []int{r.Intn(n), r.Intn(n), q.Source}
					case 1:
						q.Kind = KindCloseness
					case 2:
						q.Kind, q.Targets = KindReachability, []int{r.Intn(n)}
					case 3:
						q.Kind, q.Hops = KindKHop, r.Intn(4)
					}
					ctx := context.Background()
					switch op := r.Intn(10); {
					case op == 0 && dynamic:
						if _, err := dyn.ApplyEdges([]msbfs.Edge{
							{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))},
							{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))},
						}); err != nil {
							t.Fatal(err)
						}
						pinView()
						continue
					case op == 1 && dynamic:
						q.Version = 1 + uint64(r.Int63n(int64(dyn.Version())))
					case op == 2:
						var cancel context.CancelFunc
						ctx, cancel = context.WithCancel(ctx)
						if r.Intn(2) == 0 {
							cancel() // abandoned before it is admitted
						} else {
							time.AfterFunc(time.Duration(r.Intn(200))*time.Microsecond, cancel)
						}
						abandoned[len(results)] = true
					case op == 3:
						// Let what is in flight make progress, so that queue
						// depths from empty to deep all occur.
						time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
					}
					results = append(results, submitAsync(ctx, c, q))
				}

				var latest uint64
				if dynamic {
					latest = dyn.Version()
				}
				answered, gone := 0, 0
				for i, ch := range results {
					res := <-ch
					if res.err != nil {
						switch {
						case errors.Is(res.err, dyngraph.ErrVersionGone) &&
							res.q.Version+dyngraph.RetainedVersions <= latest:
							gone++ // evicted before the submit pinned it
						case !abandoned[i] || !errors.Is(res.err, context.Canceled):
							t.Errorf("request %d %+v: %v", i, res.q, res.err)
						}
						continue
					}
					answered++
					if !dynamic && res.ans.GraphVersion != 0 ||
						res.q.Version != 0 && res.ans.GraphVersion != res.q.Version {
						t.Errorf("request %d %+v served on version %d", i, res.q, res.ans.GraphVersion)
					}
					view := views[res.ans.GraphVersion]
					if view == nil {
						t.Fatalf("request %d %+v served on unpublished version %d", i, res.q, res.ans.GraphVersion)
					}
					checkAnswer(t, res.q, res.ans, soloAnswer(t, view, n, res.q))
				}
				c.Close()
				for _, view := range views {
					view.Release()
				}
				if answered < ops/2 {
					t.Errorf("only %d of %d requests answered (%d on evicted versions)", answered, len(results), gone)
				}
				if dynamic && latest <= dyngraph.RetainedVersions {
					t.Errorf("only %d versions published; the run never evicted one", latest)
				}
				if m := gb.maxConcurrent(); m > maxInFlight {
					t.Errorf("%d batches ran at once, want <= %d", m, maxInFlight)
				}
				if b := eng.Stats().Borrowed; b != 0 {
					t.Errorf("engine borrows outstanding: %d", b)
				}
				if dynamic {
					if p := dyn.Stats().PinnedNow; p != 0 {
						t.Errorf("snapshot pins outstanding: %d", p)
					}
				}
			})
		}
	}
}
