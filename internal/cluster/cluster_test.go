package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// once on one cluster, round after round, so their steps interleave on
// every shard and their discoveries cross the same connections. The graph
// is two interleaved chains, even and odd vertices, and the two batches
// start in different chains: a discovery routed to the wrong batch would
// show a depth on a vertex this batch never reaches, which must read
// NoLevel.
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

// TestClusterRPCsPerBatch pins what a batch costs in coordinator RPCs:
// start, one per level step and end on each shard, whether the caller
// reads nothing, records levels or passes a visitor — a reading batch's
// answers ride its step replies.
func TestClusterRPCsPerBatch(t *testing.T) {
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
	}{
		{"reads nothing", msbfs.Options{}, nil},
		{"records levels", msbfs.Options{RecordLevels: true}, nil},
		{"visitor", msbfs.Options{}, func(_, _, v, depth int) {
			if depth != v {
				t.Errorf("visitor: vertex %d at depth %d", v, depth)
			}
			visits++
		}},
	} {
		before := ip.Coord.Metrics().RPCs.Load()
		res, err := rg.RunBatch(context.Background(), []int{0}, tc.opt, tc.visit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := ip.Coord.Metrics().RPCs.Load()-before, int64(shards*(1+steps+1)); got != want {
			t.Errorf("%s: %d RPCs, want %d", tc.name, got, want)
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

// exchangeFixture is the scale-14 graph and 64-source batch the exchange
// counts are pinned on.
func exchangeFixture() (*msbfs.Graph, []int) {
	g0 := msbfs.GenerateKronecker(14, 16, 20170321)
	g, _ := g0.Relabel(msbfs.LabelStriped, 2, 512, 1)
	return g, g.RandomSources(64, 11)
}

// TestClusterExchangeCounts pins the level exchange as counts on a
// scale-14 fixture: the codec bytes and raw bytes every shard ships, the
// visited states, and the edges the shards scan. The coordinator's record
// must equal single-process top-down level for level in scanned edges and
// produced frontier vertices — each shard scans the frontier rows it owns
// and nothing else, and reports both counts on its traced step reply. A
// batch that reads its answers (levels and a visitor) exchanges the same
// bytes and scans the same edges, and its rows equal single-process ones.
func TestClusterExchangeCounts(t *testing.T) {
	g, sources := exchangeFixture()

	offsets, adjacency := g.CSR()
	single := core.MSPBFS(&graph.Graph{Offsets: offsets, Adjacency: adjacency}, sources,
		core.Options{Workers: 2, Direction: core.TopDownOnly, CollectIterStats: true, RecordLevels: true})
	var wantScanned int64
	for _, it := range single.Stats.Iterations {
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
			for _, read := range []bool{false, true} {
				opt := msbfs.Options{Workers: 2, RecordLevels: read}
				var visit func(workerID, sourceIdx, vertex, depth int)
				visits, lastDepth := int64(0), 0
				if read {
					visit = func(_, _, _, depth int) {
						if depth < lastDepth {
							t.Errorf("read: visitor saw depth %d after depth %d", depth, lastDepth)
						}
						visits, lastDepth = visits+1, depth
					}
				}
				met := ip.Coord.Metrics()
				sentBefore, rawBefore := met.FrontierBytes.Load(), met.FrontierRawBytes.Load()
				res, err := rg.RunBatch(context.Background(), sources, opt, visit)
				if err != nil {
					t.Fatal(err)
				}
				if res.VisitedStates != 800704 {
					t.Errorf("read=%t: VisitedStates = %d, want 800704", read, res.VisitedStates)
				}
				if got := met.FrontierBytes.Load() - sentBefore; got != tc.frontierBytes {
					t.Errorf("read=%t: FrontierBytes = %d, want %d", read, got, tc.frontierBytes)
				}
				if got := met.FrontierRawBytes.Load() - rawBefore; got != tc.rawBytes {
					t.Errorf("read=%t: FrontierRawBytes = %d, want %d", read, got, tc.rawBytes)
				}
				if read {
					if visits != res.VisitedStates {
						t.Errorf("visitor called %d times, VisitedStates %d", visits, res.VisitedStates)
					}
					for i := range single.Levels {
						if !slices.Equal(res.Levels[i], single.Levels[i]) {
							t.Fatalf("source %d: cluster levels differ from single-process MultiBFS", sources[i])
						}
					}
				}
				trace := tracer.Snapshot()
				iters := trace.Traversals[len(trace.Traversals)-1].Iterations
				if len(iters) != len(single.Stats.Iterations) {
					t.Fatalf("read=%t: coordinator recorded %d levels, single-process top-down %d", read, len(iters), len(single.Stats.Iterations))
				}
				var scanned int64
				for i, it := range iters {
					want := single.Stats.Iterations[i]
					if it.ScannedEdges != want.ScannedEdges || it.FrontierVertices != want.FrontierVertices {
						t.Errorf("read=%t level %d: scanned %d, frontier %d; single-process top-down %d, %d",
							read, it.Iteration, it.ScannedEdges, it.FrontierVertices, want.ScannedEdges, want.FrontierVertices)
					}
					scanned += it.ScannedEdges
				}
				if scanned != wantScanned {
					t.Errorf("read=%t: shards scanned %d edges in total, want %d", read, scanned, wantScanned)
				}
			}
		})
	}
}

// TestClusterDiscoveryBytes drives a reading batch on the exchange fixture
// by hand, msgStart and one msgStep per level on every shard, and pins the
// discovery sections its step replies carry: the codec bytes, and the
// section bytes with their length prefixes. The last step discovers
// nothing, and its section is 2 B a shard (sparse header, zero rows). The
// sections must stay under a tenth of the batch's dense k×n int32 level
// rows with their headers: 4,194,310 B at 2 shards.
func TestClusterDiscoveryBytes(t *testing.T) {
	g, sources := exchangeFixture()
	for _, tc := range []struct {
		shards       int
		codec, total int64
	}{
		{2, 339016, 339045},
		{3, 329290, 329331},
		{4, 321564, 321617},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			ip := startCluster(t, tc.shards, CoordinatorOptions{})
			c := ip.Coord
			if _, err := c.LoadGraph(context.Background(), "bytes", g, 2); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			qid := c.nextID.Add(1)
			if err := c.fanOut(func(s int) error {
				_, err := c.call(ctx, s, msgStart, encodeStart(qid, "bytes", sources, 0, true))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			defer c.fanOut(func(s int) error {
				_, err := c.call(ctx, s, msgEnd, encodeQueryRef(qid))
				return err
			})
			var codec, total, next atomic.Int64
			for level := 1; level == 1 || next.Load() > 0; level++ {
				next.Store(0)
				if err := c.fanOut(func(s int) error {
					out, err := c.call(ctx, s, msgStep, encodeQueryRef(qid, uint64(level)))
					if err != nil {
						return err
					}
					d, err := decodeStepDone(out, true)
					if err != nil {
						return err
					}
					next.Add(d.nextStates)
					codec.Add(int64(len(d.found)))
					total.Add(int64(len(out)) - int64(len(encodeStepDone(stepDone{
						nextStates: d.nextStates, sentBytes: d.sentBytes, rawBytes: d.rawBytes}))))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if codec.Load() != tc.codec || total.Load() != tc.total {
				t.Errorf("discovery sections: %d codec bytes, %d with prefixes; want %d, %d",
					codec.Load(), total.Load(), tc.codec, tc.total)
			}
			if total.Load() > 4194310/10 {
				t.Errorf("discovery sections: %d B, more than a tenth of the 4,194,310 B of dense level rows", total.Load())
			}
		})
	}
}

// TestEmitRejectsBadSections: the coordinator stamps a level's discovery
// sections in shard and vertex order, and fails the batch, without a
// panic, on a malformed section or a bit at a slot the batch does not
// have.
func TestEmitRejectsBadSections(t *testing.T) {
	const n = 128 // two shards of 64 rows
	rows := func(set map[int]uint64) []byte {
		words := make([]uint64, 64)
		for v, w := range set {
			words[v] = w
		}
		return encodeDelta(nil, words, 64, 1)
	}
	var got [][3]int
	em := &emitter{k: 3, offset: 5, part: partition(n, 2),
		levels: [][]int32{make([]int32, n), make([]int32, n), make([]int32, n)},
		visit:  func(_, i, v, depth int) { got = append(got, [3]int{i, v, depth}) }}
	em.found = [][]byte{rows(map[int]uint64{9: 0b101}), rows(map[int]uint64{1: 0b010})}
	if err := em.emit(1); err != nil {
		t.Fatal(err)
	}
	want := [][3]int{{5, 9, 1}, {7, 9, 1}, {6, 65, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("visits %v, want %v", got, want)
	}
	if em.levels[0][9] != 1 || em.levels[2][9] != 1 || em.levels[1][65] != 1 || em.levels[1][9] != 0 {
		t.Errorf("level rows not stamped as visited")
	}
	for name, sec := range map[string][]byte{
		"empty":       {},
		"bad tag":     {0x07},
		"truncated":   rows(map[int]uint64{3: 1})[:4],
		"slot 3 of 3": rows(map[int]uint64{3: 0b1000}),
	} {
		em.found = [][]byte{rows(nil), sec}
		if err := em.emit(2); err == nil {
			t.Errorf("%s section accepted", name)
		}
	}
}
