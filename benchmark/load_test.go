package main

import (
	"sync"
	"testing"
	"time"
)

// A server that handles one request at a time stalls 200 ms on the first.
// The requests scheduled behind it were due during the stall; an open loop
// that times from the due instant must charge them the wait (coordinated
// omission would report only their own short service time).
func TestOpenLoopChargesStallToRequestsBehindIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	tl := newTimeline([]phaseKind{measured}, []time.Duration{time.Second})
	dues := []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	var server sync.Mutex
	tl.start = time.Now()
	samples := openLoop(tl, dues, false, func(seq int, _ bool) reply {
		server.Lock()
		defer server.Unlock()
		if seq == 0 {
			time.Sleep(stall)
		}
		return reply{ok: true, ret: tl.now()}
	})
	// Both checks compare against when the stall ended, not against the
	// scheduler's punctuality, so a slow host does not fail them.
	stallEnd := samples[0].ret
	for _, s := range samples[1:] {
		want := float64(stall-s.due) / float64(time.Millisecond)
		if got := s.latencyMS(); got < want {
			t.Errorf("request due at %v behind a %v stall: latency %.1f ms, want at least %.1f ms", s.due, stall, got, want)
		}
		if s.sent >= stallEnd {
			t.Errorf("request due at %v was sent at %v, after the stall ended at %v: the generator waited for the stall", s.due, s.sent, stallEnd)
		}
	}
}

func TestClosedLoopAssignsOpsToThePhaseTheyCompletedIn(t *testing.T) {
	tl := newTimeline([]phaseKind{warmup, measured}, []time.Duration{100 * time.Millisecond, 100 * time.Millisecond})
	tl.start = time.Now()
	samples := closedLoop(tl, 4, func(int, bool) reply {
		time.Sleep(5 * time.Millisecond)
		return reply{ok: true}
	})
	n := map[int]int{}
	for _, s := range samples {
		if s.phase != tl.phaseAt(s.done) {
			t.Fatalf("op done at %v in phase %d, recorded in phase %d", s.done, tl.phaseAt(s.done), s.phase)
		}
		n[s.phase]++
	}
	if n[0] == 0 || n[1] == 0 {
		t.Errorf("ops per phase %v: want some in both", n)
	}
}
