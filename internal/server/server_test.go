package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	msbfs "repro"
)

func newTestServer(t *testing.T) (*httptest.Server, *msbfs.Graph) {
	t.Helper()
	g := msbfs.GenerateKronecker(10, 8, 7)
	reg := NewRegistry()
	cfg := Config{Workers: 2}
	if _, err := reg.Add("demo", g, false, cfg); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, g
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPQueryEndpoints(t *testing.T) {
	ts, g := newTestServer(t)
	direct := g.BFS(3, msbfs.Options{RecordLevels: true})

	resp, body := postJSON(t, ts.URL+"/bfs", map[string]any{
		"graph": "demo", "source": 3, "targets": []int{0, 10},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/bfs status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Visited != direct.VisitedVertices {
		t.Errorf("visited = %d, direct %d", qr.Visited, direct.VisitedVertices)
	}
	if qr.Distances[0] != direct.Levels[0] || qr.Distances[1] != direct.Levels[10] {
		t.Errorf("distances = %v, direct %d,%d", qr.Distances, direct.Levels[0], direct.Levels[10])
	}
	if qr.BatchWidth < 1 {
		t.Errorf("batch width %d", qr.BatchWidth)
	}

	resp, body = postJSON(t, ts.URL+"/closeness", map[string]any{"source": 1}) // graph omitted: single-graph default
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/closeness status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if want := g.Closeness([]int{1}, msbfs.Options{})[0]; qr.Closeness != want {
		t.Errorf("closeness = %v, library %v", qr.Closeness, want)
	}

	resp, body = postJSON(t, ts.URL+"/reachability", map[string]any{"source": 2, "target": 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reachability status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Reachable == nil {
		t.Fatal("reachable missing from response")
	}
	if want := g.Reachable([]int{2}, 9, msbfs.Options{})[0]; *qr.Reachable != want {
		t.Errorf("reachable = %v, library %v", *qr.Reachable, want)
	}

	resp, body = postJSON(t, ts.URL+"/khop", map[string]any{"source": 4, "hops": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/khop status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if want := g.NeighborhoodSizes([]int{4}, 2, msbfs.Options{})[0]; qr.Count != want {
		t.Errorf("khop = %d, library %d", qr.Count, want)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, g := newTestServer(t)
	cases := []struct {
		path   string
		body   any
		status int
	}{
		{"/bfs", map[string]any{"source": g.NumVertices()}, http.StatusBadRequest},
		{"/bfs", map[string]any{"source": -1}, http.StatusBadRequest},
		{"/bfs", map[string]any{"graph": "nope", "source": 0}, http.StatusNotFound},
		{"/reachability", map[string]any{"source": 0}, http.StatusBadRequest}, // missing target
		{"/khop", map[string]any{"source": 0, "hops": -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %v: status %d, want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s %v: error body %q not a JSON error", tc.path, tc.body, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/bfs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPObservability(t *testing.T) {
	ts, _ := newTestServer(t)
	// Serve a couple of queries so the metrics are non-trivial.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/closeness", map[string]any{"source": i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup query %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string   `json:"status"`
		Graphs []string `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Graphs) != 1 || health.Graphs[0] != "demo" {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []graphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "demo" || infos[0].Vertices == 0 || infos[0].MaxBatch != 64 {
		t.Errorf("graphs = %+v", infos)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		fmt.Sprintf("bfsd_requests_total{graph=%q} 3", "demo"),
		"bfsd_batch_width_mean",
		"bfsd_latency_seconds",
		"bfsd_queue_depth",
		"bfsd_batches_in_flight",
		"bfsd_gteps",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}
