package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	msbfs "repro"
)

func okRecord(id uint64, totalMicros int64) RequestRecord {
	return RequestRecord{TraceID: id, Graph: "g", Kind: "bfs", Status: "ok",
		TotalMicros: totalMicros}
}

func snapshotIDs(recs []RequestRecord) []uint64 {
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.TraceID
	}
	return ids
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(time.Second)
	const total = flightCap + 3
	for id := uint64(1); id <= total; id++ {
		f.Record(okRecord(id, 10))
	}
	snap := f.Snapshot()
	if snap.Total != total {
		t.Fatalf("total = %d, want %d", snap.Total, total)
	}
	got := snapshotIDs(snap.Requests)
	var want []uint64 // oldest-first after 3 evictions
	for id := uint64(4); id <= total; id++ {
		want = append(want, id)
	}
	if len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v (oldest first)", got, want)
		}
	}

	// Before wrapping, a partially filled ring reports only what was
	// recorded.
	f2 := NewFlightRecorder(time.Second)
	f2.Record(okRecord(1, 10))
	f2.Record(okRecord(2, 10))
	if got := snapshotIDs(f2.Snapshot().Requests); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("partial ring = %v, want [1 2]", got)
	}
}

func TestSlowQueryEvictionOrder(t *testing.T) {
	f := NewFlightRecorder(time.Millisecond) // slow = >= 1000 micros
	type step struct {
		rec  RequestRecord
		slow bool
	}
	steps := []step{
		{okRecord(1, 1000), true}, // exactly at threshold
		{okRecord(2, 500), false}, // under threshold
		{RequestRecord{TraceID: 3, Status: "rejected", TotalMicros: 9000}, false}, // never slow
	}
	// Ids 4 on, slower than id 1 in a shuffled order: the first slowCap-1
	// fill the log beside id 1, the next evicts id 1 (the least slow).
	want := make([]uint64, slowCap) // slowest first
	for i := range slowCap {
		rank := i * 7 % slowCap // 7 is coprime to slowCap: each rank once
		id := uint64(4 + i)
		steps = append(steps, step{okRecord(id, 2000+10*int64(rank)), true})
		want[slowCap-1-rank] = id
	}
	// Slow, but less slow than every entry: the full log keeps its own.
	steps = append(steps, step{okRecord(99, 1500), true}, step{okRecord(100, 100), false})
	for _, s := range steps {
		if got := f.Record(s.rec); got != s.slow {
			t.Fatalf("Record(id=%d total=%d) slow = %v, want %v",
				s.rec.TraceID, s.rec.TotalMicros, got, s.slow)
		}
	}
	snap := f.Snapshot()
	got := snapshotIDs(snap.Slow)
	if len(got) != len(want) {
		t.Fatalf("slow log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slow log = %v, want %v (slowest first, least-slow evicted)", got, want)
		}
	}
	// Eviction replaced 1000, and 1500 never entered.
	for _, r := range snap.Slow {
		if r.TraceID == 1 || r.TraceID == 99 {
			t.Fatalf("evicted record %d still in slow log", r.TraceID)
		}
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	if id := f.NextTraceID(); id != 0 {
		t.Fatalf("nil NextTraceID = %d, want 0", id)
	}
	if f.Record(okRecord(1, 10_000_000)) {
		t.Fatal("nil recorder reported a slow query")
	}
	if snap := f.Snapshot(); snap.Total != 0 || len(snap.Requests) != 0 {
		t.Fatalf("nil snapshot = %+v, want zero", snap)
	}
	if f.SlowThreshold() != 0 {
		t.Fatal("nil SlowThreshold != 0")
	}
}

// TestCoalescerFlightRecords drives real traffic through a registry-wired
// coalescer and checks the request records, trace IDs, latency-split
// histograms and slow-query log lines all line up.
func TestCoalescerFlightRecords(t *testing.T) {
	g := msbfs.GenerateUniform(500, 4, 1)
	reg := NewRegistry()
	defer reg.Close()
	reg.SetSlowQuery(time.Microsecond) // everything is slow
	var logBuf syncBuffer
	reg.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	e, err := reg.Add("demo", g, false, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 5
	for i := 0; i < reqs; i++ {
		ans, err := e.Submit(context.Background(), Query{Kind: KindBFS, Source: i})
		if err != nil {
			t.Fatal(err)
		}
		if ans.TraceID == 0 {
			t.Fatal("answer carries no trace ID")
		}
	}

	snap := reg.FlightRecorder().Snapshot()
	if snap.Total != reqs || len(snap.Requests) != reqs {
		t.Fatalf("recorded %d/%d requests, want %d", len(snap.Requests), snap.Total, reqs)
	}
	seen := map[uint64]bool{}
	for _, r := range snap.Requests {
		if r.Status != "ok" || r.Graph != "demo" || r.Kind != "bfs" || r.TraceID == 0 {
			t.Fatalf("bad record %+v", r)
		}
		if r.TotalMicros < r.RunMicros {
			t.Fatalf("total %dus < run %dus", r.TotalMicros, r.RunMicros)
		}
		if seen[r.TraceID] {
			t.Fatalf("duplicate trace id %d", r.TraceID)
		}
		seen[r.TraceID] = true
	}
	if len(snap.Slow) == 0 {
		t.Fatal("no slow-query records despite 1us threshold")
	}
	for i := 1; i < len(snap.Slow); i++ {
		if snap.Slow[i].TotalMicros > snap.Slow[i-1].TotalMicros {
			t.Fatal("slow log not sorted slowest-first")
		}
	}

	if got := e.Met.QueueWait.Count(); got != reqs {
		t.Fatalf("QueueWait count = %d, want %d", got, reqs)
	}
	if got := e.Met.Exec.Count(); got != reqs {
		t.Fatalf("Exec count = %d, want %d", got, reqs)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "slow query") || !strings.Contains(logs, "trace_id=") {
		t.Fatalf("slow-query log line missing: %q", logs)
	}

	// The batch flushes left spans on the registry tracer.
	spans := reg.Tracer().Snapshot().Spans
	var flushes int
	for _, sp := range spans {
		if sp.Name == "coalescer-flush" && sp.Detail == "demo" {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatalf("no coalescer-flush spans, got %+v", spans)
	}
}

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, err := addSpec(reg, "demo", "uniform:n=300,degree=4,seed=1", Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("demo")
	if _, err := e.Submit(context.Background(), Query{Kind: KindCloseness, Source: 1}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewDebugHandler(reg))
	defer ts.Close()

	// pprof surface.
	resp, err := http.Get(ts.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/heap status %d", resp.StatusCode)
	}

	// Flight recorder: the request above plus graph-build/relabel spans.
	resp, err = http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var payload flightPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.Total != 1 || len(payload.Requests) != 1 {
		t.Fatalf("flight payload requests = %+v", payload.Requests)
	}
	if payload.Requests[0].Kind != "closeness" || payload.Requests[0].TraceID == 0 {
		t.Fatalf("bad request record %+v", payload.Requests[0])
	}
	names := map[string]bool{}
	for _, sp := range payload.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"graph-build", "relabel", "coalescer-flush"} {
		if !names[want] {
			t.Fatalf("span %q missing from %+v", want, payload.Spans)
		}
	}

	// The runtime execution trace streams to the client for a bounded
	// window; the daemon buffers none of it.
	resp, err = http.Get(ts.URL + "/debug/pprof/trace?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof trace: status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("runtime trace download is empty")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from batch goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
