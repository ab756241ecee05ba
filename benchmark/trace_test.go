package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	msbfs "repro"
)

const ms = time.Millisecond

func TestSpansNestAndSelfTimeIsWhatChildrenLeave(t *testing.T) {
	served := sample{due: 0, sent: 1 * ms, done: 10 * ms, phase: 2,
		reply: reply{ok: true, ret: 9 * ms, waitUS: 2000, runUS: 3000, opID: 42}}
	offline := sample{due: 20 * ms, sent: 20 * ms, done: 31 * ms, phase: 2,
		reply: reply{ok: true, ret: 30 * ms, opID: 43, iters: []msbfs.IterationStat{
			{Duration: 2 * ms}, {Duration: 5 * ms, BottomUp: true}}}}
	otherPhase := served
	otherPhase.phase = 1
	spans := buildSpans([]sample{served, offline, otherPhase}, map[int]bool{2: true})

	want := []span{
		{"op", 42, 0, 10 * ms, -1},
		{"server.http", 42, 1 * ms, 8 * ms, 0},
		{"server.coalescer.wait", 42, 4 * ms, 2 * ms, 1},
		{"core.exec", 42, 6 * ms, 3 * ms, 1},
		{"op", 43, 20 * ms, 11 * ms, -1},
		{"core.call", 43, 20 * ms, 10 * ms, 4},
		{"core.iter.topdown", 43, 23 * ms, 2 * ms, 5},
		{"core.iter.bottomup", 43, 25 * ms, 5 * ms, 5},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if n := escapes(spans); n != 0 {
		t.Errorf("%d spans outside their parent, want 0", n)
	}
	self := selfTimes(spans)
	for i, d := range []time.Duration{2 * ms, 3 * ms, 2 * ms, 3 * ms, 1 * ms, 3 * ms, 2 * ms, 5 * ms} {
		if self[i] != d {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].name, self[i], d)
		}
	}
	if got, want := unattributedShare(spans), 3.0/21.0; got != want {
		t.Errorf("unattributed share = %v, want %v", got, want)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Fatalf("trace file: %v, %d events, want %d", err, len(doc.TraceEvents), len(spans))
	}
	if e := doc.TraceEvents[2]; e.Name != "server.coalescer.wait" || e.Ph != "X" || e.Ts != 4000 || e.Dur != 2000 {
		t.Errorf("event 2 = %+v", e)
	}
}

// wait + exec longer than the call that contained them shows as a span
// outside its parent, which fails a traced run.
func TestWaitPlusExecBeyondTheCallEscapes(t *testing.T) {
	s := sample{due: 0, sent: 0, done: 5 * ms, phase: 0,
		reply: reply{ok: true, ret: 4 * ms, waitUS: 3000, runUS: 2000}}
	if n := escapes(buildSpans([]sample{s}, map[int]bool{0: true})); n != 1 {
		t.Errorf("%d escapes, want 1", n)
	}
}
