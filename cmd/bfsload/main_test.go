package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	msbfs "repro"
	"repro/internal/server"
)

func newInprocess(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	reg := server.NewRegistry()
	g := msbfs.GenerateKronecker(10, 8, 5)
	if _, err := reg.Add("load", g, true, cfg); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestLoadAchievesCoalescing is the acceptance check for the serving
// layer's whole reason to exist: a concurrent closed-loop workload against
// an in-process server must be served at a mean batch width above 1 —
// i.e. the coalescer actually amortizes independent requests into shared
// multi-source traversals.
func TestLoadAchievesCoalescing(t *testing.T) {
	ts := newInprocess(t, server.Config{
		Workers:    2,
		MaxBatch:   64,
		MaxPending: 2048,
	})
	rep, err := drive(ts.URL, driveConfig{Clients: 64, Requests: 512, Kind: "mixed", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 512 || rep.Failed != 0 {
		t.Fatalf("ok=%d throttled=%d failed=%d", rep.OK, rep.Throttled, rep.Failed)
	}
	if w := rep.MeanBatchWidth(); w <= 1 {
		t.Errorf("mean batch width %.2f, want > 1 (no coalescing happened)", w)
	}
	if rep.Latency.Count() != 512 || rep.Latency.P99() <= 0 {
		t.Errorf("latency histogram: n=%d p99=%d", rep.Latency.Count(), rep.Latency.P99())
	}

	var out strings.Builder
	rep.print(&out)
	for _, want := range []string{"requests:", "latency:", "batch width:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestUnbatchedBaselineWidthIsOne pins the comparison point: with
// MaxBatch=1 the same workload reports width exactly 1.
func TestUnbatchedBaselineWidthIsOne(t *testing.T) {
	ts := newInprocess(t, server.Config{
		Workers:    2,
		MaxBatch:   1,
		MaxPending: 2048,
	})
	rep, err := drive(ts.URL, driveConfig{Clients: 16, Requests: 64, Kind: "closeness", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 64 {
		t.Fatalf("ok=%d failed=%d", rep.OK, rep.Failed)
	}
	if w := rep.MeanBatchWidth(); w != 1 {
		t.Errorf("unbatched mean width %.2f, want exactly 1", w)
	}
}

func TestDriveErrors(t *testing.T) {
	ts := newInprocess(t, server.Config{Workers: 1})
	if _, err := drive(ts.URL, driveConfig{Clients: 1, Requests: 1, Kind: "pagerank"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := drive(ts.URL, driveConfig{Graph: "nope", Clients: 1, Requests: 1}); err == nil {
		t.Error("unknown graph accepted")
	}
	if _, err := drive("http://127.0.0.1:1", driveConfig{Clients: 1, Requests: 1}); err == nil {
		t.Error("unreachable server accepted")
	}
}
