package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// newClusterServer builds an HTTP server serving one cluster-backed graph
// ("remote") and one local graph ("local"), both from the same generator
// spec, over an in-process shard cluster.
func newClusterServer(t *testing.T, shards int) (*httptest.Server, *cluster.Inproc, *Registry) {
	t.Helper()
	ip, err := cluster.StartInproc(context.Background(), shards,
		cluster.ShardOptions{Workers: 2, StepTimeout: cluster.DefaultInprocStepTimeout},
		cluster.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ip.Close)

	reg := NewRegistry()
	cfg := Config{Workers: 2}
	const spec = "kron:scale=9,edgefactor=8,seed=7"
	g, err := reg.BuildGraph("remote", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddCluster(context.Background(), "remote", spec, g, ip.Coord, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("local", g, true, cfg); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, ip, reg
}

// TestClusterBackedGraphMatchesLocal runs the same queries against the
// cluster-backed and the locally-served registration of one graph and
// requires identical answers end to end through the HTTP surface.
func TestClusterBackedGraphMatchesLocal(t *testing.T) {
	ts, _, _ := newClusterServer(t, 2)
	for _, q := range []struct {
		path string
		body map[string]any
	}{
		{"/bfs", map[string]any{"source": 3, "targets": []int{0, 10, 500}}},
		{"/closeness", map[string]any{"source": 12}},
		{"/reachability", map[string]any{"source": 0, "target": 77}},
		{"/khop", map[string]any{"source": 5, "hops": 2}},
	} {
		var answers []map[string]any
		for _, graph := range []string{"remote", "local"} {
			q.body["graph"] = graph
			resp, data := postJSON(t, ts.URL+q.path, q.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s on %q: status %d: %s", q.path, graph, resp.StatusCode, data)
			}
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			answers = append(answers, m)
		}
		for _, field := range []string{"visited", "eccentricity", "distances", "closeness", "reachable", "count"} {
			a, b := answers[0][field], answers[1][field]
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Errorf("%s: field %q differs: cluster=%s local=%s", q.path, field, aj, bj)
			}
		}
	}
}

// TestClusterShardDown503 kills a shard and requires queries against the
// cluster-backed graph to answer 503 while the local graph keeps serving.
func TestClusterShardDown503(t *testing.T) {
	ts, ip, _ := newClusterServer(t, 2)
	ip.KillShard(1)
	resp, data := postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "remote", "source": 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cluster query after shard kill: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "local", "source": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local query after shard kill: status %d: %s", resp.StatusCode, data)
	}
}

// TestClusterMetricsExposed checks /metrics carries the bfsd_cluster_*
// family for the cluster-backed graph only.
func TestClusterMetricsExposed(t *testing.T) {
	ts, _, _ := newClusterServer(t, 2)
	if resp, _ := postJSON(t, ts.URL+"/bfs", map[string]any{"graph": "remote", "source": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up query: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		`bfsd_cluster_frontier_bytes_total{graph="remote"}`,
		`bfsd_cluster_rpcs_total{graph="remote"}`,
		`bfsd_cluster_queries_total{graph="remote"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, `bfsd_cluster_queries_total{graph="local"}`) {
		t.Error("/metrics reports cluster family for the local graph")
	}
}
