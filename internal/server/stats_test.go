package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
)

// metricKeys parses a /metrics exposition into its line keys —
// <graph>/<name>[/<quantile>], unlabelled (engine) lines under engine/ —
// mapped to the printed value.
func metricKeys(t *testing.T, text string) map[string]string {
	t.Helper()
	keys := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed /metrics line %q", line)
		}
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		graph, quantile := "engine", ""
		for _, l := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(l, "=")
			switch k {
			case "graph":
				graph = strings.Trim(v, `"`)
			case "quantile":
				quantile = strings.Trim(v, `"`)
			}
		}
		key := graph + "/" + name
		if quantile != "" {
			key += "/" + quantile
		}
		if _, dup := keys[key]; dup {
			t.Fatalf("/metrics prints %s twice", key)
		}
		keys[key] = value
	}
	return keys
}

// parentMetricKeys is what /metrics printed for a static, a dynamic and a
// cluster graph before every number came from one table: 55 keys per
// daemon, prefixed by each graph that carries them.
func parentMetricKeys(static, dynamic, remote string) []string {
	serving := []string{
		"bfsd_requests_total", "bfsd_rejected_total", "bfsd_canceled_total",
		"bfsd_batches_total", "bfsd_batch_errors_total", "bfsd_sources_total",
		"bfsd_queue_depth", "bfsd_batches_in_flight", "bfsd_batch_width_mean",
		"bfsd_batch_width/p50", "bfsd_batch_width/p95", "bfsd_batch_width/max",
		"bfsd_latency_seconds/p50", "bfsd_latency_seconds/p95", "bfsd_latency_seconds/p99",
		"bfsd_queue_wait_seconds/p50", "bfsd_queue_wait_seconds/p95", "bfsd_queue_wait_seconds/p99",
		"bfsd_exec_seconds/p50", "bfsd_exec_seconds/p95", "bfsd_exec_seconds/p99",
		"bfsd_gteps",
	}
	dyn := []string{
		"bfsd_graph_version", "bfsd_ingest_batches_total", "bfsd_ingest_edges_total",
		"bfsd_ingest_rejected_total", "bfsd_ingest_delta_arcs", "bfsd_ingest_pinned_snapshots",
		"bfsd_ingest_retained_versions", "bfsd_compactions_total", "bfsd_retired_generations_total",
		"bfsd_compaction_seconds/p50", "bfsd_compaction_seconds/p95", "bfsd_compaction_seconds/p99",
		"bfsd_compaction_seconds/max", "bfsd_compaction_seconds_count",
	}
	clu := []string{
		"bfsd_cluster_frontier_bytes_total", "bfsd_cluster_frontier_raw_bytes_total",
		"bfsd_cluster_compression_ratio", "bfsd_cluster_rpcs_total",
		"bfsd_cluster_rpc_seconds/p50", "bfsd_cluster_rpc_seconds/p95", "bfsd_cluster_rpc_seconds/p99",
		"bfsd_cluster_queries_total", "bfsd_cluster_query_errors_total",
	}
	engine := []string{
		"bfsd_engine_pools_free", "bfsd_engine_pooled_workers",
		"bfsd_engine_arena_free_shells", "bfsd_engine_arena_free_states",
		"bfsd_engine_arena_free_bitmaps", "bfsd_engine_arena_free_level_rows",
		"bfsd_engine_arena_free_bytes", "bfsd_engine_borrowed",
		"bfsd_engine_arena_hits_total", "bfsd_engine_arena_misses_total",
	}
	var keys []string
	add := func(graph string, names ...[]string) {
		for _, group := range names {
			for _, n := range group {
				keys = append(keys, graph+"/"+n)
			}
		}
	}
	add(static, serving)
	add(dynamic, serving, dyn)
	add(remote, serving, clu)
	add("engine", engine)
	return keys
}

// TestStatsSeriesMatchMetrics registers a static, a dynamic and a
// cluster-backed graph, takes two samples one second apart around N
// queries and one ingest, and requires /debug/stats to carry exactly the
// series /metrics prints — one name per number — with the request counter
// sampled as its rate.
func TestStatsSeriesMatchMetrics(t *testing.T) {
	ip, err := cluster.StartInproc(context.Background(), 2,
		cluster.ShardOptions{Workers: 2, StepTimeout: cluster.DefaultInprocStepTimeout},
		cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ip.Close)

	reg := NewRegistry()
	cfg := Config{Workers: 2}
	g := msbfs.GenerateKronecker(9, 8, 7)
	if _, err := reg.Add("demo", g, true, cfg); err != nil {
		t.Fatal(err)
	}
	seed := msbfs.NewGraph(6, []msbfs.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}})
	if _, err := reg.AddDynamic("live", "inprocess", seed, true, cfg, dyngraph.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddCluster(context.Background(), "remote", "kron", g, ip.Coord, cfg); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	dbg := httptest.NewServer(NewDebugHandler(reg))
	t.Cleanup(func() {
		dbg.Close()
		ts.Close()
		s.Close()
	})

	prev := make(map[string]sampled)
	t0 := time.Now()
	reg.sample(prev, t0)
	const n = 5
	for i := 0; i < n; i++ {
		if resp, body := postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "demo", "source": i}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "remote", "source": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster query: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/graphs/live/edges", map[string]any{"edges": [][2]uint32{{2, 3}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	reg.sample(prev, t0.Add(time.Second))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := metricKeys(t, string(text))

	resp, err = http.Get(dbg.URL + "/debug/stats?window=1h")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsPayload
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string][]float64)
	for _, sd := range stats.Series {
		for _, p := range sd.Points {
			series[sd.Name] = append(series[sd.Name], p.V)
		}
	}

	var onlyMetrics, onlyStats []string
	for k := range lines {
		if _, ok := series[k]; !ok {
			onlyMetrics = append(onlyMetrics, k)
		}
	}
	for k := range series {
		if _, ok := lines[k]; !ok {
			onlyStats = append(onlyStats, k)
		}
	}
	if len(onlyMetrics) > 0 || len(onlyStats) > 0 {
		slices.Sort(onlyMetrics)
		slices.Sort(onlyStats)
		t.Errorf("/metrics and /debug/stats differ:\n only in /metrics: %v\n only in /debug/stats: %v", onlyMetrics, onlyStats)
	}

	// A counter's first reading is its baseline; the second is its rate.
	if pts := series["demo/bfsd_requests_total"]; !slices.Equal(pts, []float64{n}) {
		t.Errorf("demo/bfsd_requests_total points %v, want [%d] (%d requests over 1 s)", pts, n, n)
	}
	if got := lines["demo/bfsd_requests_total"]; got != "5" {
		t.Errorf("/metrics bfsd_requests_total{graph=\"demo\"} = %q, want 5", got)
	}

	// Every parent key still prints, except the count that duplicated
	// bfsd_compactions_total. New keys are quantiles of a histogram the
	// parent already exported, and the engine's hit ratio.
	parent := parentMetricKeys("demo", "live", "remote")
	if len(parent) != 22*3+14+9+10 {
		t.Fatalf("pinned %d parent keys", len(parent))
	}
	for _, k := range parent {
		_, ok := lines[k]
		if dropped := k == "live/bfsd_compaction_seconds_count"; ok == dropped {
			t.Errorf("/metrics key %s printed=%v", k, ok)
		}
	}
	for k := range lines {
		if slices.Contains(parent, k) || k == "engine/bfsd_engine_arena_hit_ratio" {
			continue
		}
		hist := k[:strings.LastIndex(k, "/")]
		if !slices.ContainsFunc(parent, func(p string) bool { return strings.HasPrefix(p, hist+"/p") }) {
			t.Errorf("/metrics key %s is new and not a quantile of a parent histogram", k)
		}
	}
}
