package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
)

// newDynTestServer serves one dynamic graph ("live", relabeled, so ingest
// and queries both exercise the external→internal permutation) plus one
// static graph ("fixed") for the not-dynamic error paths.
func newDynTestServer(t *testing.T, dcfg dyngraph.Config) *httptest.Server {
	t.Helper()
	// A path 0-1-2 plus the detached edge 4-5; vertex 3 bridges them once
	// streamed edges arrive.
	seed := msbfs.NewGraph(6, []msbfs.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	reg := NewRegistry()
	cfg := Config{Workers: 2}
	if _, err := reg.AddDynamic("live", "inprocess", seed, true, cfg, dcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("fixed", msbfs.NewGraph(4, []msbfs.Edge{{U: 0, V: 1}}), false, cfg); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func TestHTTPIngestAndVersionPinning(t *testing.T) {
	ts := newDynTestServer(t, dyngraph.Config{})

	// Happy path: bridge the two components (3 also dedups against itself
	// and drops a self-loop, checking the accounting fields).
	resp, body := postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{
		"edges": [][2]uint32{{2, 3}, {3, 4}, {4, 3}, {5, 5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Version != 2 || ir.Accepted != 2 || ir.Duplicates != 1 || ir.SelfLoops != 1 {
		t.Fatalf("ingest response %+v", ir)
	}

	// Current version: 0 reaches 5 through the new bridge at distance 5.
	resp, body = postJSON(t, ts.URL+"/bfs", map[string]any{
		"graph": "live", "source": 0, "targets": []int{5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/bfs status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.GraphVersion != 2 || qr.Distances[0] != 5 {
		t.Fatalf("v2 query: version %d, distance %d (want 2, 5)", qr.GraphVersion, qr.Distances[0])
	}

	// Pinned to version 1, the bridge does not exist yet.
	resp, body = postJSON(t, ts.URL+"/bfs?version=1", map[string]any{
		"graph": "live", "source": 0, "targets": []int{5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned /bfs status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.GraphVersion != 1 || qr.Distances[0] != int32(Unreachable) {
		t.Fatalf("v1 query: version %d, distance %d (want 1, unreachable)",
			qr.GraphVersion, qr.Distances[0])
	}

	// Future version: never published, 400.
	resp, body = postJSON(t, ts.URL+"/bfs?version=99", map[string]any{
		"graph": "live", "source": 0,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future version: status %d: %s", resp.StatusCode, body)
	}
	// Malformed version string: 400.
	resp, body = postJSON(t, ts.URL+"/bfs?version=two", map[string]any{
		"graph": "live", "source": 0,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed version: status %d: %s", resp.StatusCode, body)
	}
	// Version pinning on a static graph: 400.
	resp, body = postJSON(t, ts.URL+"/bfs?version=1", map[string]any{
		"graph": "fixed", "source": 0,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("static pin: status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	ts := newDynTestServer(t, dyngraph.Config{})

	// Out-of-range endpoint: 400, and the batch is rejected atomically.
	resp, body := postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{
		"edges": [][2]uint32{{0, 2}, {1, 6}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edge: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "live", "source": 0, "targets": []int{2}})
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.GraphVersion != 1 {
		t.Fatalf("rejected batch published version %d", qr.GraphVersion)
	}

	// Malformed JSON body: 400.
	resp, err := http.Post(ts.URL+"/graphs/live/edges", "application/json",
		strings.NewReader(`{"edges": [[0`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// Unknown graph: 404. Static graph: 400.
	resp, _ = postJSON(t, ts.URL+"/graphs/nosuch/edges", map[string]any{"edges": [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/graphs/fixed/edges", map[string]any{"edges": [][2]uint32{{0, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("static ingest: status %d", resp.StatusCode)
	}
}

func TestHTTPVersionGoneAndBackpressure(t *testing.T) {
	// Retain 2 versions; MaxDelta 6 arcs = 3 uncompacted edges.
	ts := newDynTestServer(t, dyngraph.Config{Retain: 2, MaxDelta: 6})

	for i, e := range [][2]uint32{{0, 2}, {0, 4}, {1, 4}} {
		resp, body := postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{"edges": [][2]uint32{e}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	// Versions 1..4 published, retention keeps {3, 4}: v1 is 410 Gone.
	resp, body := postJSON(t, ts.URL+"/bfs?version=1", map[string]any{"graph": "live", "source": 0})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted version: status %d: %s", resp.StatusCode, body)
	}

	// Delta is at 6/6 arcs: the next edge hits compaction-lag backpressure.
	resp, body = postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{"edges": [][2]uint32{{2, 5}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("backpressure: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("409 without Retry-After hint")
	}
}

// A batch past the CSR arc limit can never be ingested: 507, with no
// Retry-After, unlike the 409 of compaction lag. (A graph that reaches
// the limit has 2^32 arcs; dyngraph's TestArcLimit lowers the limit to
// produce the error itself.)
func TestHTTPArcLimitIs507(t *testing.T) {
	rec := httptest.NewRecorder()
	(&Server{}).writeSubmitError(rec, fmt.Errorf("%w: 4294967296 arcs", dyngraph.ErrArcLimit))
	if rec.Code != http.StatusInsufficientStorage || rec.Header().Get("Retry-After") != "" {
		t.Errorf("ErrArcLimit mapped to %d (Retry-After %q), want 507 without a retry hint", rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestHTTPDynamicMetricsAndGraphs(t *testing.T) {
	ts := newDynTestServer(t, dyngraph.Config{})
	if resp, body := postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{
		"edges": [][2]uint32{{2, 3}, {3, 4}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	// One rejected batch for the rejected counter.
	postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{"edges": [][2]uint32{{0, 9}}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`bfsd_graph_version{graph="live"} 2`,
		`bfsd_ingest_batches_total{graph="live"} 1`,
		`bfsd_ingest_edges_total{graph="live"} 2`,
		`bfsd_ingest_rejected_total{graph="live"} 1`,
		`bfsd_ingest_delta_arcs{graph="live"} 4`,
		`bfsd_compactions_total{graph="live"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, `bfsd_graph_version{graph="fixed"}`) {
		t.Errorf("static graph got dynamic metrics")
	}

	// /graphs reports the dynamic flag, live version and edge count
	// including the delta — and the same count once compaction has folded
	// the delta into a new CSR generation (the answer comes from the
	// current version, not the seed).
	liveInfo := func() graphInfo {
		t.Helper()
		gresp, err := http.Get(ts.URL + "/graphs")
		if err != nil {
			t.Fatal(err)
		}
		defer gresp.Body.Close()
		var infos []graphInfo
		if err := json.NewDecoder(gresp.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		for _, gi := range infos {
			if gi.Name == "live" {
				return gi
			}
		}
		t.Fatalf("/graphs missing the dynamic graph")
		return graphInfo{}
	}
	if gi := liveInfo(); !gi.Dynamic || gi.Version != 2 || gi.Edges != 5 {
		t.Errorf("graph info %+v (want dynamic, version 2, 5 edges)", gi)
	}
	live, _ := ts.Config.Handler.(*Server).reg.Get("live")
	if _, err := live.Dyn.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := live.Dyn.Stats(); st.DeltaArcs != 0 || st.BaseEdges != 5 {
		t.Fatalf("after Compact: %d delta arcs over %d base edges, want 0 over 5", st.DeltaArcs, st.BaseEdges)
	}
	if gi := liveInfo(); !gi.Dynamic || gi.Edges != 5 {
		t.Errorf("graph info after Compact %+v (want dynamic, 5 edges)", gi)
	}
}

// TestDynamicEntryReleasesSeed: once dyngraph retires the seed generation —
// a compaction, then Retain+1 ingests with no pin held — nothing in the
// entry keeps the seed CSR alive, because G follows the generation the
// current version traverses.
func TestDynamicEntryReleasesSeed(t *testing.T) {
	const retain = 2
	var path []msbfs.Edge
	for v := uint32(0); v < 63; v++ {
		path = append(path, msbfs.Edge{U: v, V: v + 1})
	}
	reg := NewRegistry()
	defer reg.Close()
	e, err := reg.AddDynamic("live", "inprocess", msbfs.NewGraph(64, path), true,
		Config{Workers: 2}, dyngraph.Config{Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.AddCleanup(e.G, func(done chan struct{}) { close(done) }, collected)

	ingest := func(v uint32) { // 0-v is not a path edge for v >= 2
		t.Helper()
		if res, err := e.ApplyEdges([]msbfs.Edge{{U: 0, V: v}}); err != nil || res.Accepted != 1 {
			t.Fatalf("ingest (0, %d): %+v, %v", v, res, err)
		}
	}
	ingest(2)
	if ok, err := e.Dyn.Compact(); !ok || err != nil {
		t.Fatalf("Compact = %v, %v", ok, err)
	}
	for i := 0; i <= retain; i++ {
		ingest(uint32(3 + i))
	}
	if st := e.Dyn.Stats(); st.RetiredGens == 0 {
		t.Fatalf("dyngraph retired no generation: %+v", st)
	}

	released := false
	for i := 0; i < 50 && !released; i++ {
		runtime.GC()
		select {
		case <-collected:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !released {
		t.Error("seed CSR still reachable after dyngraph retired its generation")
	}
	if got, want := e.G.NumEdges(), e.Dyn.Stats().BaseEdges; got != want {
		t.Errorf("e.G has %d edges, the current generation %d", got, want)
	}
}

// TestDynamicIngestQueryRace runs ingest, compaction, queries and /graphs
// on one dynamic entry at once: four writers through Entry.ApplyEdges
// (AutoCompact over a small MaxDelta, so compactions keep landing), eight
// Submit callers and a GET /graphs poller. Under -race it shows that
// re-pointing G races none of them; after the join no pin or engine borrow
// is left, and G is a CSR the kernels traverse like the reference BFS.
func TestDynamicIngestQueryRace(t *testing.T) {
	const n = 512
	reg := NewRegistry()
	cfg := Config{Workers: 2}
	e, err := reg.AddDynamic("live", "inprocess", msbfs.GenerateUniform(n, 4, 9), true, cfg,
		dyngraph.Config{AutoCompact: true, MaxDelta: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	defer s.Close()

	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 24; i++ {
				edges := make([]msbfs.Edge, 8)
				for j := range edges {
					edges[j] = msbfs.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))}
				}
				// A full delta is backpressure: wait for the compactor.
				for {
					_, err := e.ApplyEdges(edges)
					if !errors.Is(err, dyngraph.ErrCompactionLag) {
						if err != nil {
							t.Errorf("ingest: %v", err)
						}
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(w))
	}
	for c := 0; c < 8; c++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 24; i++ {
				q := Query{Kind: KindBFS, Source: r.Intn(n), Targets: []int{r.Intn(n)}}
				if _, err := e.Submit(context.Background(), q); err != nil {
					t.Errorf("submit %+v: %v", q, err)
				}
			}
		}(int64(c))
	}
	ingested := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/graphs", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET /graphs: status %d: %s", rec.Code, rec.Body)
			}
			select {
			case <-ingested:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(ingested)
	readers.Wait()
	// Close waits for the background compactor, whose merge pins the
	// current view: only then are the pins and borrows the join's alone.
	e.Dyn.Close()

	st := e.Dyn.Stats()
	t.Logf("%d compactions, version %d, %d base edges", st.Compactions, st.Version, st.BaseEdges)
	if st.Compactions < 2 {
		t.Errorf("%d compactions, want several", st.Compactions)
	}
	if st.PinnedNow != 0 {
		t.Errorf("snapshot pins outstanding after the join: %d", st.PinnedNow)
	}
	if b := reg.Engine().Stats().Borrowed; b != 0 {
		t.Errorf("engine borrows outstanding after the join: %d", b)
	}
	sources := e.G.RandomSources(16, 3)
	res := e.G.MultiBFS(sources, msbfs.Options{Workers: 2, RecordLevels: true})
	for i, src := range sources {
		if want := e.G.SequentialBFS(src).Levels; !slices.Equal(res.Levels[i], want) {
			t.Errorf("source %d: MultiBFS levels differ from SequentialBFS on e.G", src)
		}
	}
}

// stubSnapshots is a versioned Backend that tracks pin/release pairing so
// the coalescer's pin discipline is testable without a real DynGraph.
type stubSnapshots struct {
	*msbfs.Graph
	cur      uint64
	acquired atomic.Int64
	released atomic.Int64
}

type stubSnap struct {
	src *stubSnapshots
	ver uint64
}

func (s *stubSnapshots) Pin(ver uint64) (msbfs.Pinned, error) {
	if ver == 0 {
		ver = s.cur
	}
	s.acquired.Add(1)
	return &stubSnap{src: s, ver: ver}, nil
}

func (s *stubSnap) Version() uint64 { return s.ver }
func (s *stubSnap) Release()        { s.src.released.Add(1) }
func (s *stubSnap) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	return s.src.Graph.RunBatch(ctx, sources, opt, visit)
}

// TestCoalescerVersionKeyedBatching: requests pinned to different versions
// must never share a batch — a version change in the queue ends the prefix
// a cut takes, it does not force a cut — and every pinned snapshot must be
// released.
func TestCoalescerVersionKeyedBatching(t *testing.T) {
	g := msbfs.GenerateUniform(400, 6, 1)
	src := &stubSnapshots{Graph: g, cur: 7}
	gb := newGate(src, true)
	c := NewCoalescer(gb, Config{Workers: 2, MaxBatch: 8}, NewMetrics(), nil)
	defer c.Close()

	// Two lone batches hold the slots while versions 3, 3, 7, 3 queue up.
	versions := []uint64{7, 7, 3, 3, 7, 3}
	var results []<-chan submitResult
	for i, ver := range versions {
		results = append(results, submitAsync(context.Background(), c, Query{Kind: KindBFS, Source: i, Version: ver}))
		settle(t, c, max(0, i-1), min(i+1, 2))
	}
	gb.open()

	for i, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("submit %d: %v", i, r.err)
		}
		if r.ans.GraphVersion != versions[i] {
			t.Errorf("request %d served on version %d, want %d", i, r.ans.GraphVersion, versions[i])
		}
		if want := []int{1, 1, 2, 2, 1, 1}[i]; r.ans.BatchWidth != want {
			t.Errorf("request %d (version %d) served %d wide, want %d", i, versions[i], r.ans.BatchWidth, want)
		}
	}
	// runBatch releases a batch's pins after its demux has answered the
	// callers; Close waits for every batch to finish.
	c.Close()
	if a, r := src.acquired.Load(), src.released.Load(); a != r || a == 0 {
		t.Errorf("snapshot pins leaked: acquired %d, released %d", a, r)
	}
}

// TestMixedVersionQueue interleaves ingest with submits on a dynamic graph
// so that the pending queue holds several versions at once, current and
// explicitly pinned, one of them abandoned by its caller. Every batch must
// have traversed exactly one version, every answer must equal a solo run on
// the snapshot of the version it reports, no more than two batches may have
// run at once — the forced cut a version change used to cause broke any
// such bound — and no pin or arena borrow may outlive the drain.
func TestMixedVersionQueue(t *testing.T) {
	// Two paths, 0..9 and 10..19; every ingest splices them differently, so
	// an answer computed on the wrong version is a wrong answer.
	var edges []msbfs.Edge
	for v := uint32(0); v < 19; v++ {
		if v != 9 {
			edges = append(edges, msbfs.Edge{U: v, V: v + 1})
		}
	}
	g := msbfs.NewGraph(20, edges)
	eng := msbfs.NewEngine(msbfs.Options{Workers: 2})
	defer eng.Close()
	dyn := dyngraph.New(g, dyngraph.Config{})
	defer dyn.Close()
	gb := newGate(dyn, true)
	c := NewCoalescer(gb, Config{Workers: 2, MaxBatch: 4, MaxPending: 64, Engine: eng}, NewMetrics(), nil)
	ctx := context.Background()

	var results []<-chan submitResult
	queued := 0
	submit := func(ctx context.Context, src int, ver uint64) {
		results = append(results, submitAsync(ctx, c,
			Query{Kind: KindBFS, Source: src, Targets: []int{0, 9, 10, 19}, Version: ver}))
		queued++
		settle(t, c, max(0, queued-2), min(queued, 2))
	}
	ingest := func(u, v uint32) {
		if _, err := dyn.ApplyEdges([]msbfs.Edge{{U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
	}
	submit(ctx, 0, 0) // version 1: the two lone batches that hold the slots
	submit(ctx, 19, 0)
	submit(ctx, 1, 0)
	ingest(9, 10) // version 2
	submit(ctx, 2, 0)
	submit(ctx, 3, 1) // pinned back to version 1
	submit(ctx, 4, 0)
	ingest(0, 19) // version 3
	gone, abandon := context.WithCancel(ctx)
	submit(gone, 5, 0)
	submit(ctx, 6, 2)
	submit(ctx, 7, 3)
	submit(ctx, 8, 0)
	submit(ctx, 9, 0)
	submit(ctx, 10, 1)
	abandon()
	gb.open()

	served := map[int]Answer{} // by source: each request has its own
	for i, ch := range results {
		r := <-ch
		if i == 6 {
			if !errors.Is(r.err, context.Canceled) {
				t.Errorf("abandoned request: err = %v, want context.Canceled", r.err)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if want := []uint64{1, 1, 1, 2, 1, 2, 3, 2, 3, 3, 3, 1}[i]; r.ans.GraphVersion != want {
			t.Errorf("request %d served on version %d, want %d", i, r.ans.GraphVersion, want)
		}
		snap, err := dyn.AcquireVersion(r.ans.GraphVersion)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, r.q, r.ans, soloAnswer(t, snap, g.NumVertices(), r.q))
		snap.Release()
		served[r.q.Source] = r.ans
	}
	c.Close()

	// The queue behind the two lone batches was 1 | 2 | 1 | 2 | 3 (x) | 2 |
	// 3 3 3 | 1: one cut per run of equal versions, the abandoned request's
	// cut left with nobody to run for.
	gb.mu.Lock()
	for _, run := range gb.runs {
		for _, src := range run.sources {
			if a := served[src]; a.GraphVersion != run.version || a.BatchWidth != len(run.sources) {
				t.Errorf("source %d (pinned to version %d, told width %d) traversed in a batch of %d on version %d",
					src, a.GraphVersion, a.BatchWidth, len(run.sources), run.version)
			}
		}
	}
	gb.mu.Unlock()
	w := gb.widths()
	slices.Sort(w)
	if !slices.Equal(w, []int{1, 1, 1, 1, 1, 1, 1, 1, 3}) {
		t.Errorf("batches of %v, want eight lone ones and the three on version 3", w)
	}
	if m := gb.maxConcurrent(); m > maxInFlight {
		t.Errorf("%d batches ran at once, want <= %d", m, maxInFlight)
	}
	if p := dyn.Stats().PinnedNow; p != 0 {
		t.Errorf("snapshot pins outstanding after the drain: %d", p)
	}
	if b := eng.Stats().Borrowed; b != 0 {
		t.Errorf("engine borrows outstanding after the drain: %d", b)
	}
}

// TestStaticIsOneVersionDynamic states the property the single serving path
// rests on: a static graph behaves exactly as a dynamic graph that never
// ingests, except that its one version is eternal — answers agree field for
// field apart from GraphVersion (0 vs 1), and only the dynamic graph has a
// version 1 to pin.
func TestStaticIsOneVersionDynamic(t *testing.T) {
	g := msbfs.GenerateUniform(500, 4, 3) // sparse: has unreachable pairs
	reg := NewRegistry()
	cfg := Config{Workers: 2}
	static, err := reg.Add("static", g, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := reg.AddDynamic("dynamic", "inprocess", g, true, cfg, dyngraph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	n := g.NumVertices()
	for i := 0; i < 40; i++ {
		src, tgt := (i*37)%n, (i*91+5)%n
		for _, q := range []Query{
			{Kind: KindBFS, Source: src, Targets: []int{tgt, src, tgt}},
			{Kind: KindCloseness, Source: src},
			{Kind: KindReachability, Source: src, Targets: []int{tgt}},
			{Kind: KindKHop, Source: src, Hops: i % 4},
		} {
			var got [2]Answer
			for j, e := range []*Entry{static, dynamic} {
				a, err := e.Submit(context.Background(), q)
				if err != nil {
					t.Fatalf("%s %+v: %v", e.Name, q, err)
				}
				if want := uint64(j); a.GraphVersion != want {
					t.Errorf("%s served version %d, want %d", e.Name, a.GraphVersion, want)
				}
				// Timing and correlation fields are per-run, not part of the result.
				a.GraphVersion, a.BatchWidth, a.Wait, a.Run, a.TraceID = 0, 0, 0, 0, 0
				got[j] = a
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%+v: static %+v, dynamic %+v", q, got[0], got[1])
			}
		}
	}

	for graph, want := range map[string]int{"static": http.StatusBadRequest, "dynamic": http.StatusOK} {
		resp, body := postJSON(t, ts.URL+"/bfs?version=1", map[string]any{"graph": graph, "source": 0})
		if resp.StatusCode != want {
			t.Errorf("?version=1 on %s: status %d, want %d: %s", graph, resp.StatusCode, want, body)
		}
	}
}

// TestHTTPBodyLimits: the query and ingest handlers cap the request body —
// an oversized body is answered 413 without being buffered, and a normal
// request is unaffected.
func TestHTTPBodyLimits(t *testing.T) {
	ts := newDynTestServer(t, dyngraph.Config{})
	pad := func(n int) string { return strings.Repeat(" ", n) }

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"oversized query", "/bfs", pad(maxQueryBody+1) + `{"graph":"fixed","source":0}`, http.StatusRequestEntityTooLarge},
		{"oversized ingest", "/graphs/live/edges", pad(maxIngestBody+1) + `{"edges":[[2,3]]}`, http.StatusRequestEntityTooLarge},
		{"normal query", "/bfs", pad(64) + `{"graph":"fixed","source":0}`, http.StatusOK},
		{"normal ingest", "/graphs/live/edges", `{"edges":[[2,3]]}`, http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
