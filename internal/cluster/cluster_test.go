package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

func startCluster(t *testing.T, shards int, coordOpt CoordinatorOptions) *Inproc {
	t.Helper()
	ip, err := StartInproc(context.Background(), shards,
		ShardOptions{Workers: 2, StepTimeout: DefaultInprocStepTimeout}, coordOpt)
	if err != nil {
		t.Fatalf("StartInproc(%d): %v", shards, err)
	}
	t.Cleanup(ip.Close)
	return ip
}

// pathGraph builds a chain 0-1-2-...-n-1: every interior partition
// boundary cuts exactly one edge, and BFS needs ~n levels, maximizing
// barrier rounds.
func pathGraph(n int) *msbfs.Graph {
	edges := make([]msbfs.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, msbfs.Edge{U: uint32(v), V: uint32(v + 1)})
	}
	return msbfs.NewGraph(n, edges)
}

func TestClusterMultipleGraphsAndQueries(t *testing.T) {
	ip := startCluster(t, 2, CoordinatorOptions{})
	g1 := msbfs.GenerateKronecker(9, 8, 23)
	g2 := pathGraph(300)
	rg1, err := ip.Coord.LoadGraph(context.Background(), "a", g1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rg2, err := ip.Coord.LoadGraph(context.Background(), "b", g2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved concurrent queries against both graphs must not cross
	// wires (distinct qids route each delta to its own query state).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rg, g := rg1, g1
			if i%2 == 1 {
				rg, g = rg2, g2
			}
			sources := g.RandomSources(3, uint64(i+1))
			opt := msbfs.Options{Workers: 2, RecordLevels: true}
			want := g.MultiBFS(sources, opt)
			got, err := rg.RunBatch(context.Background(), sources, opt, nil)
			if err != nil {
				errs[i] = err
				return
			}
			for s := range want.Levels {
				for v := range want.Levels[s] {
					if got.Levels[s][v] != want.Levels[s][v] {
						errs[i] = fmt.Errorf("query %d: level mismatch at source %d vertex %d", i, s, v)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ip.Coord.Metrics().Queries.Load(); got != 8 {
		t.Errorf("Queries=%d, want 8", got)
	}
}

func TestClusterInvalidRequests(t *testing.T) {
	ip := startCluster(t, 2, CoordinatorOptions{})
	g := pathGraph(128)
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rg.RunBatch(context.Background(), []int{128}, msbfs.Options{}, nil); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := rg.RunBatch(context.Background(), []int{-1}, msbfs.Options{}, nil); err == nil {
		t.Error("negative source accepted")
	}
	// A stale graph name (shard restarted, coordinator reattached) must
	// error cleanly, not hang the barrier.
	stale := &RemoteGraph{c: ip.Coord, name: "nope", n: 128}
	if _, err := stale.RunBatch(context.Background(), []int{0}, msbfs.Options{}, nil); err == nil {
		t.Error("unknown graph accepted")
	}
	// The failed queries must not wedge the cluster for later ones.
	if _, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{}, nil); err != nil {
		t.Fatalf("query after failed queries: %v", err)
	}
}

func TestClusterContextCancellation(t *testing.T) {
	ip := startCluster(t, 2, CoordinatorOptions{})
	g := pathGraph(2048)
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rg.RunBatch(ctx, []int{0}, msbfs.Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err=%v, want context.Canceled", err)
	}
	// Expired deadlines propagate as RPC failures too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := rg.RunBatch(dctx, []int{0}, msbfs.Options{}, nil); err == nil {
		t.Fatal("expired deadline accepted")
	}
	// The cluster keeps serving once a live context is supplied.
	if _, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{}, nil); err != nil {
		t.Fatalf("query after cancelled queries: %v", err)
	}
}

// TestClusterShardLevelRowsConcurrent runs two level-recording batches at
// once on one cluster, round after round, so the shards' pooled row slabs
// pass between queries. The graph is two interleaved chains, even and odd
// vertices, and the two batches start in different chains: a slab that
// kept the other batch's depths would show them on vertices this batch
// never reaches, which must read NoLevel.
func TestClusterShardLevelRowsConcurrent(t *testing.T) {
	const n, rounds = 200, 8
	ip := startCluster(t, 2, CoordinatorOptions{})
	edges := make([]msbfs.Edge, 0, n-2)
	for v := 0; v+2 < n; v++ {
		edges = append(edges, msbfs.Edge{U: uint32(v), V: uint32(v + 2)})
	}
	ref := graph.FromEdges(n, edges)
	rg, err := ip.Coord.LoadGraph(context.Background(), "chains", msbfs.NewGraph(n, edges), 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]int{{0, 50, 198}, {1, 99, 151}}
	want := make([][][]int32, len(batches))
	for b, sources := range batches {
		for _, s := range sources {
			want[b] = append(want[b], core.ReferenceLevels(ref, s))
		}
	}
	var wg sync.WaitGroup
	for b, sources := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				res, err := rg.RunBatch(context.Background(), sources, msbfs.Options{RecordLevels: true}, nil)
				if err != nil {
					t.Errorf("batch %d round %d: %v", b, round, err)
					return
				}
				for i, s := range sources {
					if len(res.Levels[i]) != n {
						t.Errorf("batch %d round %d source %d: %d levels, want %d", b, round, s, len(res.Levels[i]), n)
						return
					}
					for v, lv := range res.Levels[i] {
						if lv != want[b][i][v] {
							t.Errorf("batch %d round %d source %d: vertex %d level %d, want %d", b, round, s, v, lv, want[b][i][v])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTakeLevelRowsScrubs: a shard's level rows read NoLevel on the cold
// take and on every warm one, whatever the last query left in the slab,
// and no row can grow into the next.
func TestTakeLevelRowsScrubs(t *testing.T) {
	const n, k = 300, 3
	for round := range 4 {
		slab, rows := takeLevelRows(n, k)
		if len(rows) != k {
			t.Fatalf("round %d: %d rows, want %d", round, len(rows), k)
		}
		for i, row := range rows {
			if len(row) != n || cap(row) != n {
				t.Fatalf("round %d row %d: len %d cap %d, want %d", round, i, len(row), cap(row), n)
			}
			for v, lv := range row {
				if lv != core.NoLevel {
					t.Fatalf("round %d row %d: vertex %d = %d, want NoLevel", round, i, v, lv)
				}
				row[v] = int32(round + 1)
			}
		}
		levelSlabs.Put(slab)
	}
}

// TestClusterShardPoisonedSlabScrubbed parks slabs full of a depth no
// query reaches, then records a batch on a graph of two components: the
// vertices of the component the source is not in must read NoLevel on
// every shard, not the poison.
func TestClusterShardPoisonedSlabScrubbed(t *testing.T) {
	const n, poison = 10, int32(123456789)
	ip := startCluster(t, 2, CoordinatorOptions{})
	var edges []msbfs.Edge
	for v := 0; v+1 < n; v++ {
		if v != n/2-1 { // two paths, 0…4 and 5…9
			edges = append(edges, msbfs.Edge{U: uint32(v), V: uint32(v + 1)})
		}
	}
	rg, err := ip.Coord.LoadGraph(context.Background(), "halves", msbfs.NewGraph(n, edges), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ReferenceLevels(graph.FromEdges(n, edges), 0)
	for round := range 4 {
		// Empty the pool of other tests' clean slabs (as far as Get
		// reaches), so the shards take poisoned ones.
		for levelSlabs.Get() != nil {
		}
		for range 8 {
			slab := make([]int32, n)
			for i := range slab {
				slab[i] = poison
			}
			levelSlabs.Put(&slab)
		}
		res, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{RecordLevels: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, lv := range res.Levels[0] {
			if lv != want[v] {
				t.Errorf("round %d: vertex %d level %d, want %d", round, v, lv, want[v])
			}
		}
	}
}

// TestClusterFetchOnlyForReader pins what a batch costs in coordinator
// RPCs: start, one per level step and end on each shard, plus one
// msgResult per shard only when the caller reads levels (records them or
// passes a visitor). A shard asked for the rows of a batch that records
// none refuses.
func TestClusterFetchOnlyForReader(t *testing.T) {
	const shards = 2
	ip := startCluster(t, shards, CoordinatorOptions{})
	g := pathGraph(10) // from vertex 0: 9 discovering steps and a last empty one
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 10
	visits := 0
	for _, tc := range []struct {
		name  string
		opt   msbfs.Options
		visit func(workerID, sourceIdx, vertex, depth int)
		rpcs  int64
	}{
		{"reads nothing", msbfs.Options{}, nil, shards * (1 + steps + 1)},
		{"records levels", msbfs.Options{RecordLevels: true}, nil, shards * (1 + steps + 1 + 1)},
		{"visitor", msbfs.Options{}, func(_, _, _, _ int) { visits++ }, shards * (1 + steps + 1 + 1)},
	} {
		before := ip.Coord.Metrics().RPCs.Load()
		res, err := rg.RunBatch(context.Background(), []int{0}, tc.opt, tc.visit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ip.Coord.Metrics().RPCs.Load() - before; got != tc.rpcs {
			t.Errorf("%s: %d RPCs, want %d", tc.name, got, tc.rpcs)
		}
		if res.VisitedStates != 10 {
			t.Errorf("%s: VisitedStates = %d, want 10", tc.name, res.VisitedStates)
		}
		if tc.opt.RecordLevels {
			for v, lv := range res.Levels[0] {
				if lv != int32(v) {
					t.Errorf("%s: vertex %d level %d, want %d", tc.name, v, lv, v)
				}
			}
		}
	}
	if visits != 10 {
		t.Errorf("visitor saw %d discoveries, want 10", visits)
	}

	// A shard asked for the rows of a batch that records none refuses.
	ctx := context.Background()
	qid := ip.Coord.nextID.Add(1)
	if _, err := ip.Coord.call(ctx, 0, msgStart, encodeStart(qid, "g", []int{0}, 0, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Coord.call(ctx, 0, msgResult, encodeQueryRef(qid)); err == nil {
		t.Error("msgResult answered for a batch that records no levels")
	}
	if _, err := ip.Coord.call(ctx, 0, msgEnd, encodeQueryRef(qid)); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCancelMidQuery cancels a query while its steps run. The
// coordinator's best-effort msgEnd then reaches shards that may still be
// inside a step, and the step must finish before its engine goes back to
// the arena; under -race this pins that ordering. Later queries on the
// same shards must still answer exactly.
func TestClusterCancelMidQuery(t *testing.T) {
	ip := startCluster(t, 2, CoordinatorOptions{})
	g := pathGraph(1 << 14) // thousands of levels: the cancel lands mid-query
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := rg.RunBatch(ctx, []int{0}, msbfs.Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err=%v, want context.Canceled", err)
	}
	opt := msbfs.Options{MaxDepth: 100, RecordLevels: true}
	sources := []int{0, 8000, 1<<14 - 1}
	want := g.MultiBFS(sources, opt)
	got, err := rg.RunBatch(context.Background(), sources, opt, nil)
	if err != nil {
		t.Fatalf("query after the cancelled one: %v", err)
	}
	for i := range want.Levels {
		for v, lv := range want.Levels[i] {
			if got.Levels[i][v] != lv {
				t.Fatalf("source %d vertex %d: level %d, want %d", sources[i], v, got.Levels[i][v], lv)
			}
		}
	}
}

// TestClusterShardKillMidQuery kills a shard while queries stream through
// the barrier and requires a prompt typed failure, not a hang, and the
// failed queries' flight records. Run under -race this also shakes the
// teardown paths.
func TestClusterShardKillMidQuery(t *testing.T) {
	const shards = 4
	tracer := obs.NewTracer()
	ip, err := StartInproc(context.Background(), shards,
		ShardOptions{Workers: 2, StepTimeout: 2 * time.Second}, CoordinatorOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	// A long path means thousands of barrier rounds: the kill always
	// lands mid-query.
	g := pathGraph(1 << 14)
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{RecordLevels: true}, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	ip.KillShard(2)
	select {
	case err := <-done:
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("query after shard kill: err=%v, want ErrShardDown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query did not fail after shard kill")
	}
	// Follow-up queries fail fast with the same typed error instead of
	// timing out against the dead shard.
	start := time.Now()
	if _, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{}, nil); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query against dead shard: err=%v, want ErrShardDown", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("dead-shard query took %v, want fail-fast", since)
	}
	if ip.Coord.Metrics().QueryErrors.Load() == 0 {
		t.Error("QueryErrors not incremented")
	}
	// Each failed query published its record, holding the levels every
	// shard answered before the failure: none for the fail-fast one.
	trace := tracer.Snapshot()
	if len(trace.Traversals) != 2 {
		t.Fatalf("%d traversals recorded after two failed queries, want 2", len(trace.Traversals))
	}
	for _, tv := range trace.Traversals {
		if len(tv.ShardSteps) != shards*len(tv.Iterations) {
			t.Errorf("traversal %d: %d shard steps for %d levels", tv.ID, len(tv.ShardSteps), len(tv.Iterations))
		}
	}
	if n := len(trace.Traversals[1].Iterations); n != 0 {
		t.Errorf("query against a dead shard recorded %d levels, want 0", n)
	}
}

// TestClusterCompressionRatio checks the flight record carries the delta
// exchange volume and that sparse-frontier iterations compress below the
// raw bitset size.
func TestClusterCompressionRatio(t *testing.T) {
	tracer := obs.NewTracer()
	ip := startCluster(t, 4, CoordinatorOptions{Tracer: tracer})
	// A long path has one-vertex frontiers: maximally sparse deltas.
	g := pathGraph(4096)
	rg, err := ip.Coord.LoadGraph(context.Background(), "g", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rg.RunBatch(context.Background(), []int{0}, msbfs.Options{RecordLevels: true}, nil); err != nil {
		t.Fatal(err)
	}
	tr := tracer.Snapshot()
	if len(tr.Traversals) != 1 {
		t.Fatalf("%d traversals recorded, want 1", len(tr.Traversals))
	}
	tv := tr.Traversals[0]
	if tv.Algo != "cluster/ms-pbfs" {
		t.Errorf("algo %q", tv.Algo)
	}
	var exchanged, compressed int
	for _, rec := range tv.Iterations {
		if rec.ExchangeRawBytes == 0 {
			continue
		}
		exchanged++
		if ratio := rec.CompressionRatio(); ratio < 1.0 {
			compressed++
		}
	}
	if exchanged == 0 {
		t.Fatal("no iteration recorded exchange bytes")
	}
	if compressed == 0 {
		t.Fatal("no sparse-frontier iteration compressed below raw size")
	}
	met := ip.Coord.Metrics()
	if met.FrontierRawBytes.Load() == 0 {
		t.Fatal("FrontierRawBytes metric stayed zero")
	}
	if r := float64(met.FrontierBytes.Load()) / float64(met.FrontierRawBytes.Load()); r <= 0 || r >= 1.0 {
		t.Errorf("cluster-wide compression ratio %.3f, want (0,1) on a path graph", r)
	}
}

// TestClusterExchangeCounts pins the level exchange as counts on a
// scale-14 fixture: the codec bytes and raw bytes every shard ships, the
// visited states, and the edges the shards scan. The coordinator's record
// must equal single-process top-down level for level in scanned edges and
// produced frontier vertices — each shard scans the frontier rows it owns
// and nothing else, and reports both counts on its traced step reply.
func TestClusterExchangeCounts(t *testing.T) {
	g0 := msbfs.GenerateKronecker(14, 16, 20170321)
	g, _ := g0.Relabel(msbfs.LabelStriped, 2, 512, 1)
	sources := g.RandomSources(64, 11)

	single := g.MultiBFS(sources, msbfs.Options{Workers: 2, TopDownOnly: true, CollectIterStats: true})
	var wantScanned int64
	for _, it := range single.Iterations {
		wantScanned += it.ScannedEdges
	}
	if wantScanned != 1247271 {
		t.Fatalf("single-process top-down scanned %d edges, want 1247271", wantScanned)
	}

	for _, tc := range []struct {
		shards        int
		frontierBytes int64
		rawBytes      int64
	}{
		{2, 403728, 917504},
		{3, 513776, 1835008},
		{4, 530868, 2752512},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			tracer := obs.NewTracer()
			ip, err := StartInproc(context.Background(), tc.shards,
				ShardOptions{Workers: 2, StepTimeout: DefaultInprocStepTimeout},
				CoordinatorOptions{Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			defer ip.Close()
			rg, err := ip.Coord.LoadGraph(context.Background(), "counts", g, 2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rg.RunBatch(context.Background(), sources, msbfs.Options{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.VisitedStates != 800704 {
				t.Errorf("VisitedStates = %d, want 800704", res.VisitedStates)
			}
			met := ip.Coord.Metrics()
			if got := met.FrontierBytes.Load(); got != tc.frontierBytes {
				t.Errorf("FrontierBytes = %d, want %d", got, tc.frontierBytes)
			}
			if got := met.FrontierRawBytes.Load(); got != tc.rawBytes {
				t.Errorf("FrontierRawBytes = %d, want %d", got, tc.rawBytes)
			}
			trace := tracer.Snapshot()
			if len(trace.Traversals) != 1 {
				t.Fatalf("%d traversals recorded, want 1", len(trace.Traversals))
			}
			iters := trace.Traversals[0].Iterations
			if len(iters) != len(single.Iterations) {
				t.Fatalf("coordinator recorded %d levels, single-process top-down %d", len(iters), len(single.Iterations))
			}
			var scanned int64
			for i, it := range iters {
				want := single.Iterations[i]
				if it.ScannedEdges != want.ScannedEdges || it.FrontierVertices != want.FrontierVertices {
					t.Errorf("level %d: scanned %d, frontier %d; single-process top-down %d, %d",
						it.Iteration, it.ScannedEdges, it.FrontierVertices, want.ScannedEdges, want.FrontierVertices)
				}
				scanned += it.ScannedEdges
			}
			if scanned != wantScanned {
				t.Errorf("shards scanned %d edges in total, want %d", scanned, wantScanned)
			}
		})
	}
}
