package dyngraph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// randomEdges produces m distinct canonical edges over n vertices.
func randomEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	for len(edges) < m {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]graph.VertexID{u, v}] {
			continue
		}
		seen[[2]graph.VertexID{u, v}] = true
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
}

// checkSnapshotOracle asserts that BFS over a snapshot (CSR + overlay)
// matches BFS over a CSR rebuilt from scratch with exactly the edges that
// should be visible at the snapshot's version.
func checkSnapshotOracle(t *testing.T, snap *Snapshot, n int, visible []graph.Edge, sources []int) {
	t.Helper()
	oracle := msbfs.NewGraph(n, visible)
	if got, want := snap.NumEdges(), oracle.NumEdges(); got != want {
		t.Fatalf("v%d: snapshot has %d edges, oracle %d", snap.Version(), got, want)
	}
	opt := msbfs.Options{Workers: 2, RecordLevels: true}
	snapOpt := opt
	snapOpt.Overlay = snap.Overlay()

	want := oracle.MultiBFS(sources, opt)
	got := snap.Graph().MultiBFS(sources, snapOpt)
	for i := range sources {
		if !reflect.DeepEqual(want.Levels[i], got.Levels[i]) {
			t.Fatalf("v%d: MultiBFS levels diverge for source %d", snap.Version(), sources[i])
		}
	}

	w1 := oracle.BFS(sources[0], opt)
	g1 := snap.Graph().BFS(sources[0], snapOpt)
	if !reflect.DeepEqual(w1.Levels, g1.Levels) {
		t.Fatalf("v%d: BFS levels diverge", snap.Version())
	}

	w2 := oracle.SequentialBFS(sources[0])
	g2 := core.ReferenceLevelsOverlay(snapInternal(snap), snap.v.ov, sources[0])
	if !reflect.DeepEqual(w2.Levels, g2) {
		t.Fatalf("v%d: sequential levels diverge", snap.Version())
	}
}

// snapInternal digs out the snapshot's internal CSR for the sequential
// reference oracle.
func snapInternal(s *Snapshot) *graph.Graph { return s.v.gen.base }

// TestSnapshotOracleEveryVersion streams random batches in and verifies
// every intermediate version against a from-scratch rebuild, holding all
// snapshots alive simultaneously so MVCC isolation is exercised.
func TestSnapshotOracleEveryVersion(t *testing.T) {
	const n = 300
	all := randomEdges(n, 900, 42)
	base := all[:300]
	d := New(msbfs.NewGraph(n, base), Config{Retain: 64})
	defer d.Close()

	type pinned struct {
		snap    *Snapshot
		visible []graph.Edge
	}
	var pins []pinned
	sources := []int{0, 17, 123, 299}

	visible := append([]graph.Edge(nil), base...)
	s0, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	pins = append(pins, pinned{s0, append([]graph.Edge(nil), visible...)})

	rest := all[300:]
	for len(rest) > 0 {
		k := 40
		if k > len(rest) {
			k = len(rest)
		}
		batch := rest[:k]
		rest = rest[k:]
		res, err := d.ApplyEdges(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != k {
			t.Fatalf("accepted %d of %d fresh edges", res.Accepted, k)
		}
		visible = append(visible, batch...)
		snap, err := d.AcquireVersion(res.Version)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pinned{snap, append([]graph.Edge(nil), visible...)})
	}

	// Every pinned version must still see exactly its own edge set.
	for _, p := range pins {
		checkSnapshotOracle(t, p.snap, n, p.visible, sources)
	}
	// Compact, then re-verify: re-published and still-pinned old views
	// alike must be unperturbed.
	if ok, err := d.Compact(); err != nil || !ok {
		t.Fatalf("compact: ok=%v err=%v", ok, err)
	}
	for _, p := range pins {
		checkSnapshotOracle(t, p.snap, n, p.visible, sources)
		p.snap.Release()
	}
}

// TestCompactionMidStream interleaves compactions with ingest and checks
// the final view plus a version pinned before the first compaction.
func TestCompactionMidStream(t *testing.T) {
	const n = 200
	all := randomEdges(n, 600, 7)
	d := New(msbfs.NewGraph(n, all[:100]), Config{Retain: 64})
	defer d.Close()

	early, err := d.Acquire() // v1, will straddle every compaction
	if err != nil {
		t.Fatal(err)
	}
	visible := all[:100]
	rest := all[100:]
	step := 0
	for len(rest) > 0 {
		k := 25
		if k > len(rest) {
			k = len(rest)
		}
		if _, err := d.ApplyEdges(rest[:k]); err != nil {
			t.Fatal(err)
		}
		visible = all[:len(visible)+k]
		rest = rest[k:]
		if step%3 == 2 {
			if _, err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		step++
	}
	sources := []int{0, 50, 199}
	cur, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotOracle(t, cur, n, visible, sources)
	checkSnapshotOracle(t, early, n, all[:100], sources)
	cur.Release()
	early.Release()

	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran")
	}
	if st.DeltaEdges != 0 && st.Compactions > 0 && st.DeltaArcs == 0 {
		t.Fatalf("inconsistent delta accounting: %+v", st)
	}
}

// TestApplyEdgesDedupAndValidation pins the batch hygiene rules.
func TestApplyEdgesDedupAndValidation(t *testing.T) {
	const n = 50
	d := New(msbfs.NewGraph(n, []graph.Edge{{U: 0, V: 1}}), Config{})
	defer d.Close()

	res, err := d.ApplyEdges([]graph.Edge{
		{U: 0, V: 1}, // dup of base
		{U: 1, V: 0}, // dup of base, swapped
		{U: 3, V: 3}, // self-loop
		{U: 2, V: 3}, // fresh
		{U: 3, V: 2}, // dup within batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Duplicates != 3 || res.SelfLoops != 1 {
		t.Fatalf("got %+v", res)
	}
	if res.Version != 2 {
		t.Fatalf("version = %d, want 2", res.Version)
	}

	// Re-sending the same edge is a no-op batch: no version bump.
	res2, err := d.ApplyEdges([]graph.Edge{{U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accepted != 0 || res2.Version != 2 {
		t.Fatalf("idempotent resend got %+v", res2)
	}

	// Out-of-range endpoint rejects the whole batch atomically.
	if _, err := d.ApplyEdges([]graph.Edge{{U: 4, V: 5}, {U: 0, V: graph.VertexID(n)}}); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("want ErrBadEdge, got %v", err)
	}
	if d.Version() != 2 {
		t.Fatalf("failed batch bumped version to %d", d.Version())
	}
	snap, _ := d.Acquire()
	defer snap.Release()
	if got := snap.NumEdges(); got != 2 {
		t.Fatalf("edge count %d after rejected batch, want 2", got)
	}
}

// TestBackpressure verifies ErrCompactionLag at MaxDelta and recovery
// after an explicit compaction.
func TestBackpressure(t *testing.T) {
	const n = 100
	d := New(msbfs.NewGraph(n, nil), Config{MaxDelta: 8}) // 4 edges of headroom
	defer d.Close()

	if _, err := d.ApplyEdges(randomEdges(n, 4, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := d.ApplyEdges([]graph.Edge{{U: 90, V: 91}})
	if !errors.Is(err, ErrCompactionLag) {
		t.Fatalf("want ErrCompactionLag, got %v", err)
	}
	if ok, err := d.Compact(); err != nil || !ok {
		t.Fatalf("compact: %v %v", ok, err)
	}
	if _, err := d.ApplyEdges([]graph.Edge{{U: 90, V: 91}}); err != nil {
		t.Fatalf("ingest after compaction: %v", err)
	}
	if st := d.Stats(); st.IngestRejected != 1 {
		t.Fatalf("IngestRejected = %d, want 1", st.IngestRejected)
	}
}

// TestArcLimit: a batch that would take base + delta past the CSR arc
// limit is refused whole, as a rejected ingest matching both ErrArcLimit
// and graph.ErrTooManyArcs, and publishes nothing; a batch that fits the
// limit exactly is accepted. The limit is lowered to 10 arcs here.
func TestArcLimit(t *testing.T) {
	defer func(check func(uint64) error) { checkArcs = check }(checkArcs)
	checkArcs = func(arcs uint64) error {
		if arcs > 10 {
			return fmt.Errorf("%w: %d arcs", graph.ErrTooManyArcs, arcs)
		}
		return nil
	}
	d := New(msbfs.NewGraph(20, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), Config{}) // 4 base arcs
	defer d.Close()
	if _, err := d.ApplyEdges([]graph.Edge{{U: 3, V: 4}, {U: 5, V: 6}}); err != nil { // 8 arcs
		t.Fatal(err)
	}
	_, err := d.ApplyEdges([]graph.Edge{{U: 0, V: 1}, {U: 7, V: 8}, {U: 9, V: 10}}) // one duplicate, 12 arcs
	if !errors.Is(err, ErrArcLimit) || !errors.Is(err, graph.ErrTooManyArcs) {
		t.Fatalf("want ErrArcLimit wrapping graph.ErrTooManyArcs, got %v", err)
	}
	if v := d.Version(); v != 2 {
		t.Fatalf("refused batch published version %d", v)
	}
	if res, err := d.ApplyEdges([]graph.Edge{{U: 7, V: 8}}); err != nil || res.Version != 3 { // 10 arcs
		t.Fatalf("batch at the limit: %+v, %v", res, err)
	}
	if st := d.Stats(); st.IngestRejected != 1 {
		t.Fatalf("IngestRejected = %d, want 1", st.IngestRejected)
	}
}

// TestVersionLifecycle covers retention eviction, future versions, and
// closed-state errors.
func TestVersionLifecycle(t *testing.T) {
	const n = 64
	d := New(msbfs.NewGraph(n, nil), Config{Retain: 2})

	for i := 0; i < 4; i++ {
		if _, err := d.ApplyEdges([]graph.Edge{{U: graph.VertexID(i), V: graph.VertexID(i + 10)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Versions now 1..5; Retain 2 keeps {4, 5}.
	if _, err := d.AcquireVersion(2); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("want ErrVersionGone for v2, got %v", err)
	}
	if _, err := d.AcquireVersion(99); !errors.Is(err, ErrVersionFuture) {
		t.Fatalf("want ErrVersionFuture, got %v", err)
	}
	s4, err := d.AcquireVersion(4)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Version() != 4 {
		t.Fatalf("pinned %d", s4.Version())
	}
	s4.Release()
	s4.Release() // idempotent

	d.Close()
	d.Close() // idempotent
	if _, err := d.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := d.ApplyEdges(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := d.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestPinFailureIsNil: Pin of a version that was never published, or that
// has aged out, returns its error and an untyped nil — not a nil *Snapshot
// inside the interface — and a good pin reports its version.
func TestPinFailureIsNil(t *testing.T) {
	d := New(msbfs.NewGraph(8, nil), Config{Retain: 1})
	defer d.Close()
	if _, err := d.ApplyEdges([]graph.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	for ver, want := range map[uint64]error{99: ErrVersionFuture, 1: ErrVersionGone} {
		if pin, err := d.Pin(ver); pin != nil || !errors.Is(err, want) {
			t.Errorf("Pin(%d) = %v, %v; want nil, %v", ver, pin, err, want)
		}
	}
	pin, err := d.Pin(0)
	if err != nil || pin.Version() != 2 {
		t.Fatalf("Pin(0) = %v, %v; want version 2", pin, err)
	}
	pin.Release()
}

// TestIngestPastActivePrefix: on a striped graph the vertices past the
// active prefix are isolated, and the kernels' state stops there. An
// ingested edge to vertex n-1 must still be traversed, before and after
// compaction, as the oracle over the full edge set traverses it.
func TestIngestPastActivePrefix(t *testing.T) {
	g, _ := msbfs.GenerateKronecker(12, 16, 1).Relabel(msbfs.LabelStriped, 2, 512, 1)
	n := g.NumVertices()
	d := New(g, Config{Retain: 4})
	defer d.Close()
	s0, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	a := snapInternal(s0).ActivePrefix()
	s0.Release()
	if a >= n-1 {
		t.Fatalf("active prefix %d of %d: the striped graph should end in isolated vertices", a, n)
	}
	off, adj := g.CSR()
	visible := append((&graph.Graph{Offsets: off, Adjacency: adj}).Edges(), graph.Edge{U: 0, V: graph.VertexID(n - 1)})
	if _, err := d.ApplyEdges(visible[len(visible)-1:]); err != nil {
		t.Fatal(err)
	}
	sources := []int{0, n - 1, a, a - 1}
	// A fresh engine: a parked shell of a larger prefix would serve the run
	// without the prefix the overlay sets.
	eng := msbfs.NewEngine(msbfs.Options{Workers: 2})
	defer eng.Close()
	for _, compact := range []bool{false, true} {
		if compact {
			if ok, err := d.Compact(); err != nil || !ok {
				t.Fatalf("compact: ok=%v err=%v", ok, err)
			}
		}
		snap, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotOracle(t, snap, n, visible, sources)
		res, err := snap.RunBatch(context.Background(), sources, msbfs.Options{Workers: 2, RecordLevels: true, Engine: eng}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Levels[0][n-1] != 1 || res.Levels[1][0] != 1 {
			t.Errorf("compacted=%v: edge 0-%d not traversed: levels %d and %d, want 1 and 1",
				compact, n-1, res.Levels[0][n-1], res.Levels[1][0])
		}
		snap.Release()
	}
}

// TestArenaScrubOnRetire: once the last snapshot of a retired generation
// is released, the generation's overlay arena must be poisoned. A stale
// neighbor-list pointer held past Release reads PoisonVertex instead of a
// plausible vertex id.
func TestArenaScrubOnRetire(t *testing.T) {
	const n = 32
	d := New(msbfs.NewGraph(n, []graph.Edge{{U: 0, V: 1}}), Config{Retain: 1})
	defer d.Close()

	if _, err := d.ApplyEdges([]graph.Edge{{U: 2, V: 3}, {U: 4, V: 5}}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	stale := snap.Overlay().Extra(2) // list in generation 1's arena
	if len(stale) != 1 || stale[0] != 3 {
		t.Fatalf("overlay list = %v, want [3]", stale)
	}

	// Compaction moves the live versions to generation 2; generation 1 is
	// kept alive solely by snap's pin.
	if ok, err := d.Compact(); err != nil || !ok {
		t.Fatalf("compact: %v %v", ok, err)
	}
	if st := d.Stats(); st.RetiredGens != 0 {
		t.Fatalf("generation retired while still pinned")
	}
	if stale[0] != 3 {
		t.Fatalf("pinned overlay disturbed by compaction: %v", stale)
	}

	snap.Release()
	st := d.Stats()
	if st.RetiredGens != 1 {
		t.Fatalf("RetiredGens = %d after last release, want 1", st.RetiredGens)
	}
	if stale[0] != PoisonVertex {
		t.Fatalf("retired arena not scrubbed: %v", stale)
	}
}

// TestAutoCompact exercises the background compactor end to end.
func TestAutoCompact(t *testing.T) {
	const n = 128
	d := New(msbfs.NewGraph(n, nil), Config{
		MaxDelta: 1 << 16, CompactThreshold: 20, AutoCompact: true, Retain: 4,
	})
	edges := randomEdges(n, 200, 3)
	for i := 0; i < len(edges); i += 10 {
		end := i + 10
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := d.ApplyEdges(edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never ran")
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
}

// syncCompactor returns once the background compactor has finished with
// every kick buffered before the call: two blocking sends on the one-slot
// kick channel complete only after the loop took the buffered kick and then
// came back for the next one.
func syncCompactor(d *DynGraph) {
	d.kick <- struct{}{}
	d.kick <- struct{}{}
}

// TestCompactorMergesOnlyWhenDue holds the first background merge while a
// small batch lands. That batch kicks the compactor again, since the
// current view's delta is still past the threshold, but once the merge
// publishes, only the small batch is left: the buffered kick must not start
// a second full merge for it.
func TestCompactorMergesOnlyWhenDue(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var merged []int64 // arcs each merge folded, appended by the compactor
	defer func(m func(*graph.Graph, *graph.Overlay) *graph.Graph) { mergeOverlay = m }(mergeOverlay)
	mergeOverlay = func(g *graph.Graph, ov *graph.Overlay) *graph.Graph {
		merged = append(merged, ov.Arcs())
		if len(merged) == 1 {
			close(entered)
			<-release
		}
		return graph.MergeOverlay(g, ov)
	}
	const n = 128
	d := New(msbfs.NewGraph(n, nil), Config{
		MaxDelta: 1 << 10, CompactThreshold: 100, AutoCompact: true,
	})
	defer d.Close()
	edges := randomEdges(n, 60, 11)
	if _, err := d.ApplyEdges(edges[:50]); err != nil { // 100 arcs: due
		t.Fatal(err)
	}
	<-entered
	if _, err := d.ApplyEdges(edges[50:]); err != nil { // 20 arcs more, kicks again
		t.Fatal(err)
	}
	close(release)
	syncCompactor(d)
	if st := d.Stats(); st.Compactions != 1 || st.DeltaArcs != 20 || len(merged) != 1 {
		t.Fatalf("after one due merge: %d compactions folding %v arcs, %d delta arcs left; want 1 folding [100], 20 left",
			st.Compactions, merged, st.DeltaArcs)
	}
}

// TestCompactorMergesAfterLag: a batch larger than the space the delta has
// left is refused with ErrCompactionLag while the delta is still below the
// threshold. The refusal makes a merge due, so the retried batch fits.
func TestCompactorMergesAfterLag(t *testing.T) {
	const n = 128
	d := New(msbfs.NewGraph(n, nil), Config{
		MaxDelta: 100, CompactThreshold: 50, AutoCompact: true,
	})
	defer d.Close()
	edges := randomEdges(n, 55, 13)
	if _, err := d.ApplyEdges(edges[:10]); err != nil { // 20 arcs: not due
		t.Fatal(err)
	}
	syncCompactor(d)
	if st := d.Stats(); st.Compactions != 0 {
		t.Fatalf("%d compactions below the threshold, want 0", st.Compactions)
	}
	if _, err := d.ApplyEdges(edges[10:]); !errors.Is(err, ErrCompactionLag) { // 20 + 90 > 100
		t.Fatalf("want ErrCompactionLag, got %v", err)
	}
	syncCompactor(d)
	if st := d.Stats(); st.Compactions != 1 || st.DeltaArcs != 0 {
		t.Fatalf("after the refusal: %d compactions, %d delta arcs; want 1, 0", st.Compactions, st.DeltaArcs)
	}
	if _, err := d.ApplyEdges(edges[10:]); err != nil {
		t.Fatalf("retry after the lag merge: %v", err)
	}
}

// TestCompactorLagClearedByMerge: the merge a lag refusal made due clears
// the refusal, so a later small batch below the threshold stays in the
// delta however often the compactor wakes.
func TestCompactorLagClearedByMerge(t *testing.T) {
	const n = 128
	d := New(msbfs.NewGraph(n, nil), Config{
		MaxDelta: 100, CompactThreshold: 50, AutoCompact: true,
	})
	defer d.Close()
	edges := randomEdges(n, 60, 13)
	if _, err := d.ApplyEdges(edges[:10]); err != nil { // 20 arcs: not due
		t.Fatal(err)
	}
	if _, err := d.ApplyEdges(edges[10:55]); !errors.Is(err, ErrCompactionLag) { // 20 + 90 > 100
		t.Fatalf("want ErrCompactionLag, got %v", err)
	}
	syncCompactor(d)
	if _, err := d.ApplyEdges(edges[55:]); err != nil { // 10 arcs: not due
		t.Fatal(err)
	}
	// The first sync's own kicks wake the compactor with the small batch
	// in the delta; the second waits out whatever they started.
	syncCompactor(d)
	syncCompactor(d)
	if st := d.Stats(); st.Compactions != 1 || st.DeltaArcs != 10 {
		t.Fatalf("%d compactions, %d delta arcs left; want the lag merge only and 10 left",
			st.Compactions, st.DeltaArcs)
	}
}

// TestCompactIgnoresThreshold: the background compactor leaves a delta
// below the threshold alone, but an explicit Compact merges it.
func TestCompactIgnoresThreshold(t *testing.T) {
	const n = 128
	d := New(msbfs.NewGraph(n, nil), Config{
		MaxDelta: 1 << 10, CompactThreshold: 100, AutoCompact: true,
	})
	defer d.Close()
	if _, err := d.ApplyEdges(randomEdges(n, 10, 17)); err != nil { // 20 arcs: not due
		t.Fatal(err)
	}
	syncCompactor(d)
	if st := d.Stats(); st.Compactions != 0 || st.DeltaArcs != 20 {
		t.Fatalf("background compactor: %d compactions, %d delta arcs; want 0 and 20", st.Compactions, st.DeltaArcs)
	}
	if ok, err := d.Compact(); err != nil || !ok {
		t.Fatalf("explicit Compact below the threshold = %v, %v; want a merge", ok, err)
	}
	if st := d.Stats(); st.Compactions != 1 || st.DeltaArcs != 0 {
		t.Fatalf("after Compact: %d compactions, %d delta arcs; want 1 and 0", st.Compactions, st.DeltaArcs)
	}
}

// totalAlloc returns the bytes f allocates, live or not: compaction's
// transients are what set an ingesting server's peak RSS.
func totalAlloc(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestCompactMemoryBudget bounds what one compaction allocates, as a
// multiple of the CSR it produces: the row merge allocates the result and
// an empty overlay's page table. The build it replaced (edge list
// re-extracted, FromEdges' two arc arrays) measured 2.95x here.
func TestCompactMemoryBudget(t *testing.T) {
	g := msbfs.GenerateKronecker(14, 16, 20170321)
	d := New(g, Config{})
	defer d.Close()
	fresh := randomEdges(g.NumVertices(), 8*64, 5)
	for b := 0; b < 8; b++ {
		if _, err := d.ApplyEdges(fresh[b*64 : (b+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	alloc := totalAlloc(func() {
		if ok, err := d.Compact(); err != nil || !ok {
			t.Errorf("compact: ok=%v err=%v", ok, err)
		}
	})
	csr := d.cur.gen.base.MemoryBytes()
	t.Logf("compaction allocated %d bytes for a %d-byte CSR (%.2fx)", alloc, csr, float64(alloc)/float64(csr))
	if float64(alloc) > 1.3*float64(csr) {
		t.Errorf("compaction allocated %d bytes for a %d-byte CSR (%.2fx, budget 1.3x)",
			alloc, csr, float64(alloc)/float64(csr))
	}
}
