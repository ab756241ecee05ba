package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func record(t *Tracer, algo string, iters int) {
	tv := t.StartTraversal(algo, 4)
	for i := 1; i <= iters; i++ {
		tv.Record(IterationRecord{
			Iteration:        i,
			BottomUp:         i%2 == 0,
			Reason:           "top-down-steady",
			FrontierVertices: int64(i * 10),
			UpdatedStates:    int64(i * 20),
			ScannedEdges:     int64(i * 100),
			Visited:          int64(i * 30),
			Duration:         time.Duration(i) * time.Millisecond,
		})
	}
	tv.Finish()
}

// TestNilTracerIsFree pins the disabled fast path: the full call surface
// through a nil tracer must not allocate. This is the contract the
// kernels' per-iteration hooks rely on.
func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tv := tr.StartTraversal("ms-pbfs", 64)
		tv.Record(IterationRecord{Iteration: 1})
		tv.Finish()
		sp := tr.StartSpan("csr-build", "kron")
		sp.End()
		_ = tr.Snapshot()
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer path allocated %.0f times per op, want 0", allocs)
	}
}

func TestIterationRecordSkew(t *testing.T) {
	rec := IterationRecord{WorkerBusy: []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}}
	if got := rec.Skew(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("Skew = %v, want 4", got)
	}
	if (IterationRecord{}).Skew() != 1 {
		t.Error("Skew without worker data should be 1")
	}
	// An idle worker is clamped, not a division by zero.
	idle := IterationRecord{WorkerBusy: []time.Duration{0, time.Second}}
	if s := idle.Skew(); math.IsInf(s, 0) || s <= 1 {
		t.Errorf("idle-worker skew = %v", s)
	}
}

func TestTraversalLifecycle(t *testing.T) {
	tr := NewTracer()
	record(tr, "ms-pbfs", 3)

	snap := tr.Snapshot()
	if len(snap.Traversals) != 1 {
		t.Fatalf("got %d traversals, want 1", len(snap.Traversals))
	}
	tv := snap.Traversals[0]
	if tv.ID != 1 || tv.Algo != "ms-pbfs" || tv.Sources != 4 {
		t.Errorf("traversal header = %d/%q/%d, want 1/ms-pbfs/4", tv.ID, tv.Algo, tv.Sources)
	}
	if len(tv.Iterations) != 3 {
		t.Fatalf("got %d iterations, want 3", len(tv.Iterations))
	}
	if got := tv.Iterations[1].Direction(); got != "bottom-up" {
		t.Errorf("iteration 2 direction = %q, want bottom-up", got)
	}
	if tv.End.Before(tv.Start) {
		t.Error("End before Start")
	}

	tr.Reset()
	if s := tr.Snapshot(); len(s.Traversals) != 0 || len(s.Spans) != 0 {
		t.Errorf("after Reset: %d traversals, %d spans", len(s.Traversals), len(s.Spans))
	}
	// IDs keep increasing across Reset.
	record(tr, "beamer", 1)
	if s := tr.Snapshot(); s.Traversals[0].ID != 2 {
		t.Errorf("post-reset ID = %d, want 2", s.Traversals[0].ID)
	}
}

// TestRetentionBounds: the tracer is a ring, not a log — oldest records
// are evicted and counted once the caps are hit.
func TestRetentionBounds(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < maxTraversals+2; i++ {
		record(tr, fmt.Sprintf("algo-%d", i), 1)
	}
	for i := 0; i < maxSpans+2; i++ {
		sp := tr.StartSpan(fmt.Sprintf("span-%d", i), "")
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap.Traversals) != maxTraversals || snap.DroppedTraversals != 2 {
		t.Errorf("traversals: kept %d dropped %d, want %d/2",
			len(snap.Traversals), snap.DroppedTraversals, maxTraversals)
	}
	// Oldest-first order, oldest dropped.
	for i, tv := range snap.Traversals {
		if want := fmt.Sprintf("algo-%d", i+2); tv.Algo != want {
			t.Errorf("traversal[%d].Algo = %q, want %q", i, tv.Algo, want)
		}
	}
	if len(snap.Spans) != maxSpans || snap.DroppedSpans != 2 {
		t.Fatalf("spans: kept %d dropped %d, want %d/2", len(snap.Spans), snap.DroppedSpans, maxSpans)
	}
	if first, last := snap.Spans[0].Name, snap.Spans[maxSpans-1].Name; first != "span-2" || last != fmt.Sprintf("span-%d", maxSpans+1) {
		t.Errorf("span order = %q..%q, want span-2..span-%d", first, last, maxSpans+1)
	}
}

func TestConcurrentPublish(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				record(tr, "ms-bfs", 2)
				sp := tr.StartSpan("flush", "")
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if got := len(snap.Traversals) + int(snap.DroppedTraversals); got != 400 {
		t.Errorf("kept+dropped traversals = %d, want 400", got)
	}
	seen := map[uint64]bool{}
	for _, tv := range snap.Traversals {
		if seen[tv.ID] {
			t.Fatalf("duplicate traversal ID %d", tv.ID)
		}
		seen[tv.ID] = true
	}
}

// TestChromeTraceValid unmarshals the export and checks the trace-event
// contract: a traceEvents array of events each carrying name/ph/ts/pid.
func TestChromeTraceValid(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("csr-build", "kron scale=10")
	sp.End()
	record(tr, "ms-pbfs", 3)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Pid  *int           `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	var iters, spans, complete int
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			complete++
		case "M":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		switch {
		case ev.Name == "csr-build":
			spans++
		case strings.HasPrefix(ev.Name, "L"):
			iters++
			if ev.Args["direction"] == nil || ev.Args["reason"] == nil {
				t.Errorf("iteration event lacks direction/reason args: %v", ev.Args)
			}
		}
	}
	if spans != 1 || iters != 3 || complete != 5 {
		t.Errorf("spans=%d iters=%d complete=%d, want 1/3/5", spans, iters, complete)
	}
}

func TestWriteText(t *testing.T) {
	var empty *Tracer
	var buf bytes.Buffer
	if err := empty.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("nil tracer text = %q, want empty marker", buf.String())
	}

	tr := NewTracer()
	sp := tr.StartSpan("relabel", "striped")
	sp.End()
	record(tr, "ms-pbfs", 2)
	buf.Reset()
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"relabel", "ms-pbfs", "bottom-up", "top-down", "sources=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestChromeTraceShardTracks checks the multi-process merge: shard step
// records export as their own pid tracks (one per shard, distinct from
// the coordinator's pid 1) named "shard N", with the six RPC sub-spans
// nested inside every step slice.
func TestChromeTraceShardTracks(t *testing.T) {
	tr := NewTracer()
	tv := tr.StartTraversal("cluster/ms-pbfs", 4)
	base := time.Now()
	for level := 0; level < 2; level++ {
		for shard := 0; shard < 2; shard++ {
			sent := base.Add(time.Duration(level) * 10 * time.Millisecond)
			tv.RecordShardStep(ShardStep{
				Shard: shard, Level: level,
				ReqSent: sent, ReplyRecv: sent.Add(8 * time.Millisecond),
				Scan: time.Millisecond, Encode: 100 * time.Microsecond,
				Send: 200 * time.Microsecond, Wait: 2 * time.Millisecond,
				Decode: 300 * time.Microsecond, Apply: 400 * time.Microsecond,
				NextStates: 17,
			})
		}
	}
	tv.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	shardPids := map[int]string{} // pid -> process_name
	steps := map[int]int{}        // pid -> step slice count
	subSpans := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Pid != chromePid {
			shardPids[ev.Pid], _ = ev.Args["name"].(string)
		}
		switch ev.Cat {
		case "shard-step":
			steps[ev.Pid]++
		case "shard-phase":
			subSpans[ev.Name]++
		}
	}
	if len(shardPids) != 2 {
		t.Fatalf("shard process tracks = %v, want 2", shardPids)
	}
	for shard := 0; shard < 2; shard++ {
		pid := shardPidBase + shard
		if name := shardPids[pid]; name != fmt.Sprintf("shard %d", shard) {
			t.Errorf("pid %d process_name = %q, want %q", pid, name, fmt.Sprintf("shard %d", shard))
		}
		if steps[pid] != 2 {
			t.Errorf("pid %d has %d step slices, want 2", pid, steps[pid])
		}
	}
	for _, want := range []string{"scan", "rpc/encode", "rpc/send", "rpc/wait", "rpc/decode", "rpc/apply"} {
		if subSpans[want] != 4 {
			t.Errorf("sub-span %q appears %d times, want 4", want, subSpans[want])
		}
	}
}
