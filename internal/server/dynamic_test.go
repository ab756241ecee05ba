package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	cfg := Config{Workers: 2, FlushDeadline: time.Millisecond}
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

func (s *stubSnapshots) Pin(ver uint64) (Pinned, error) {
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
// must never share a batch, and every pinned snapshot must be released.
func TestCoalescerVersionKeyedBatching(t *testing.T) {
	g := msbfs.GenerateUniform(400, 6, 1)
	src := &stubSnapshots{Graph: g, cur: 7}
	met := NewMetrics()
	c := NewCoalescer(src, Config{
		Workers: 2, MaxBatch: 8, FlushDeadline: 200 * time.Millisecond,
	}, met, nil)
	defer c.Close()

	var wg sync.WaitGroup
	answers := make([]Answer, 2)
	errs := make([]error, 2)
	submit := func(i int, ver uint64) {
		defer wg.Done()
		answers[i], errs[i] = c.Submit(context.Background(), Query{
			Kind: KindBFS, Source: i, Version: ver,
		})
	}
	wg.Add(1)
	go submit(0, 3)
	time.Sleep(10 * time.Millisecond) // let the v3 request start filling a batch
	wg.Add(1)
	go submit(1, 7)
	wg.Wait()

	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if answers[i].BatchWidth != 1 {
			t.Errorf("request %d batched across versions (width %d)", i, answers[i].BatchWidth)
		}
	}
	if answers[0].GraphVersion != 3 || answers[1].GraphVersion != 7 {
		t.Errorf("versions %d, %d (want 3, 7)", answers[0].GraphVersion, answers[1].GraphVersion)
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r || a == 0 {
		t.Errorf("snapshot pins leaked: acquired %d, released %d", a, r)
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
	cfg := Config{Workers: 2, FlushDeadline: time.Millisecond}
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
