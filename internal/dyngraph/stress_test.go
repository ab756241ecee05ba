package dyngraph

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestIngestWhileQueryStress races concurrent writers, snapshot-pinning
// readers and a compaction loop against each other (run under -race in CI
// via `make dyn-test`). Every reader verifies its results against the
// exact edge set of the version it pinned at acquire time — a version
// recorder shared with the writers makes that oracle available — so any
// MVCC isolation violation (ingest or compaction disturbing a pinned
// snapshot) shows up as a level mismatch, not just a data race.
func TestIngestWhileQueryStress(t *testing.T) {
	const (
		n          = 192
		numWriters = 2
		numReaders = 4
		batches    = 30
		batchSize  = 8
	)
	const tailEdges = 40
	universe := randomEdges(n, numWriters*batches*batchSize+200+tailEdges, 99)
	base := universe[:200]
	streams := universe[200 : 200+numWriters*batches*batchSize]
	tail := universe[200+numWriters*batches*batchSize:]

	d := New(msbfs.NewGraph(n, base), Config{MaxDelta: 1 << 30})
	defer d.Close()

	// Version recorder: ver -> cumulative visible edge set. Writers extend
	// it under recMu in the same critical section as ApplyEdges, so every
	// acquirable version has an entry by the time a reader can pin it.
	recMu := sync.Mutex{}
	recorded := map[uint64][]graph.Edge{1: base}
	cumulative := append([]graph.Edge(nil), base...)

	var wg sync.WaitGroup
	writersDone := make(chan struct{})

	for w := 0; w < numWriters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := streams[w*batches*batchSize : (w+1)*batches*batchSize]
			for b := 0; b < batches; b++ {
				batch := mine[b*batchSize : (b+1)*batchSize]
				recMu.Lock()
				res, err := d.ApplyEdges(batch)
				if err == nil && res.Accepted > 0 {
					cumulative = append(cumulative, batch...)
					recorded[res.Version] = append([]graph.Edge(nil), cumulative...)
				}
				recMu.Unlock()
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if res.Accepted != batchSize {
					t.Errorf("writer %d: accepted %d of %d distinct edges", w, res.Accepted, batchSize)
					return
				}
				if b%5 == 4 {
					time.Sleep(200 * time.Microsecond) // let compactor/readers overlap
				}
			}
		}()
	}

	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			if _, err := d.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	readerStop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			src := []int{r % n, (r * 37) % n}
			for i := 0; ; i++ {
				select {
				case <-readerStop:
					return
				default:
				}
				snap, err := d.Acquire()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				recMu.Lock()
				visible, ok := recorded[snap.Version()]
				recMu.Unlock()
				if !ok {
					t.Errorf("reader %d: pinned unrecorded version %d", r, snap.Version())
					snap.Release()
					return
				}
				oracle := msbfs.NewGraph(n, visible)
				opt := msbfs.Options{Workers: 2, RecordLevels: true}
				snapOpt := opt
				snapOpt.Overlay = snap.Overlay()
				want := oracle.MultiBFS(src, opt)
				got := snap.Graph().MultiBFS(src, snapOpt)
				for j := range src {
					if !reflect.DeepEqual(want.Levels[j], got.Levels[j]) {
						t.Errorf("reader %d: v%d levels diverge from pinned-version oracle",
							r, snap.Version())
						snap.Release()
						return
					}
				}
				if i%7 == 0 { // cheap sequential cross-check now and then
					wl := core.ReferenceLevels(oracleInternal(oracle), src[0])
					gl := core.ReferenceLevelsOverlay(snapInternal(snap), snap.v.ov, src[0])
					if !reflect.DeepEqual(wl, gl) {
						t.Errorf("reader %d: v%d sequential divergence", r, snap.Version())
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}

	wg.Wait()
	close(writersDone)
	<-compactorDone
	close(readerStop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Compact, then roll the retention window past every pre-compaction
	// view: generations pinned only by retained-but-stale views must
	// retire (and their overlay arenas be scrubbed) as eviction drains
	// them — the PR-4 poisoning hygiene extended to overlay state.
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, e := range tail {
		recMu.Lock()
		res, err := d.ApplyEdges([]graph.Edge{e})
		if err == nil && res.Accepted > 0 {
			cumulative = append(cumulative, e)
			recorded[res.Version] = append([]graph.Edge(nil), cumulative...)
		}
		recMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Version != uint64(1+numWriters*batches+tailEdges) {
		t.Fatalf("final version %d, want %d", st.Version, 1+numWriters*batches+tailEdges)
	}
	if st.PinnedNow != 0 {
		t.Fatalf("%d snapshots still pinned after all releases", st.PinnedNow)
	}
	if st.Compactions == 0 || st.RetiredGens == 0 {
		t.Fatalf("stress never exercised compaction/retirement: %+v", st)
	}
	snap, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	recMu.Lock()
	finalVisible := recorded[snap.Version()]
	recMu.Unlock()
	checkSnapshotOracle(t, snap, n, finalVisible, []int{0, n / 2, n - 1})
}

// oracleInternal mirrors snapInternal for from-scratch oracle graphs.
func oracleInternal(g *msbfs.Graph) *graph.Graph {
	off, adj := g.CSR()
	return &graph.Graph{Offsets: off, Adjacency: adj}
}

// TestCompactWhileHorizonEvicted: every ingest evicts the version
// RetainedVersions before it, so a compaction's horizon view leaves the
// retention window, once that many ingests land beside it, while the merge
// is still reading its CSR and overlay lists. The
// merge must see neither a dropped CSR nor PoisonVertex (it would build a
// wrong graph or crash), readers beside it must not either, the result
// must be the from-scratch build of everything ingested, and the
// compactor's pin must be gone afterwards on every path, ErrClosed
// included.
func TestCompactWhileHorizonEvicted(t *testing.T) {
	const n = 1 << 12
	universe := randomEdges(n, 60000+RetainedVersions, 11)
	base, stream, tail := universe[:40000], universe[40000:60000], universe[60000:]
	d := New(msbfs.NewGraph(n, base), Config{MaxDelta: 1 << 30})

	stop, writerDone := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	ingested := 0
	wg.Add(2)
	go func() { // writer: one edge per version, so every apply evicts
		defer wg.Done()
		defer close(writerDone)
		for ; ingested < len(stream); ingested++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.ApplyEdges(stream[ingested : ingested+1]); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := d.Acquire()
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if ov := snap.Overlay(); ov != nil {
				for v := 0; v < n; v++ {
					for _, u := range ov.Extra(v) {
						if u == PoisonVertex {
							t.Errorf("v%d: pinned overlay reads poison at vertex %d", snap.Version(), v)
						}
					}
				}
			}
			snap.Release()
		}
	}()

	// Compact until five compactions have run beside more than
	// RetainedVersions ingests (one may land before the pin; the
	// RetainedVersions after it evict the horizon), or the writer runs out
	// of stream.
	overlapped := 0
	for writing := true; writing && overlapped < 5; {
		before := d.Version()
		if _, err := d.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if d.Version() > before+RetainedVersions {
			overlapped++
		}
		select {
		case <-writerDone:
			writing = false
		default:
		}
	}
	close(stop)
	wg.Wait()
	if overlapped == 0 {
		t.Fatalf("no compaction overlapped an ingest: the eviction race was never exercised")
	}
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// The versions before the last horizon hold their generations until
	// the tail's ingests evict them.
	for i := range tail {
		if _, err := d.ApplyEdges(tail[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.PinnedNow != 0 {
		t.Fatalf("%d pins outstanding after compactions and readers finished", st.PinnedNow)
	}
	if st.RetiredGens != st.Compactions {
		t.Fatalf("%d compactions but %d generations retired with nothing pinned", st.Compactions, st.RetiredGens)
	}
	want := graph.FromEdges(n, append(append([]graph.Edge(nil), base...), stream[:ingested]...))
	if got := d.cur.gen.base; !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adjacency, want.Adjacency) {
		t.Fatalf("final compacted CSR differs from a from-scratch build of %d edges", len(base)+ingested)
	}

	d.Close()
	if _, err := d.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
	if p := d.Stats().PinnedNow; p != 0 {
		t.Fatalf("%d pins outstanding after a refused compaction", p)
	}
}
