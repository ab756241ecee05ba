package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the traced window, recorded by the harness
// around its calls into a layer. Spans of one op share its id.
type span struct {
	name       string
	op         uint64
	start, dur time.Duration
	parent     int // index into the span list, -1 for a root
}

func (s span) end() time.Duration { return s.start + s.dur }

// buildSpans lays out the spans of the ops of the given (traced) phases:
//
//	op (due -> checked reply)
//	  server.http | server.submit          the ServeHTTP / Entry.Submit call
//	    server.coalescer.wait, core.exec   from wait_us / run_us, laid end
//	                                       to end before the call returned
//	  core.call                            an offline Graph call
//	    core.iter.topdown | .bottomup      one per IterationStat, likewise
//
// The program reports durations, not instants, for the innermost spans, so
// their placement inside the parent is the harness's; their lengths and
// the parent's bounds are measured.
func buildSpans(samples []sample, phases map[int]bool) []span {
	var spans []span
	add := func(name string, op uint64, start, dur time.Duration, parent int) int {
		spans = append(spans, span{name: name, op: op, start: start, dur: dur, parent: parent})
		return len(spans) - 1
	}
	for i := range samples {
		s := &samples[i]
		if !phases[s.phase] || !s.ok {
			continue
		}
		root := add("op", s.opID, s.due, s.done-s.due, -1)
		switch {
		case s.iters != nil:
			call := add("core.call", s.opID, s.sent, s.ret-s.sent, root)
			var sum time.Duration
			for _, it := range s.iters {
				sum += it.Duration
			}
			at := s.ret - sum
			for _, it := range s.iters {
				name := "core.iter.topdown"
				if it.BottomUp {
					name = "core.iter.bottomup"
				}
				add(name, s.opID, at, it.Duration, call)
				at += it.Duration
			}
		case s.write:
			name := "server.http.ingest"
			if s.direct {
				name = "dyngraph.apply"
			}
			add(name, s.opID, s.sent, s.ret-s.sent, root)
		default:
			name := "server.http"
			if s.direct {
				name = "server.submit"
			}
			call := add(name, s.opID, s.sent, s.ret-s.sent, root)
			wait := time.Duration(s.waitUS) * time.Microsecond
			exec := time.Duration(s.runUS) * time.Microsecond
			add("server.coalescer.wait", s.opID, s.ret-exec-wait, wait, call)
			add("core.exec", s.opID, s.ret-exec, exec, call)
		}
	}
	return spans
}

// selfTimes is each span's duration minus what its children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// escapes counts spans that do not lie inside their parent.
func escapes(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		if par := spans[s.parent]; s.start < par.start || s.end() > par.end() {
			n++
		}
	}
	return n
}

// unattributedShare is the roots' self time over the roots' duration: the
// part of an op's latency no layer's span accounts for (generator lag,
// decoding and checking the reply).
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var rootSelf, rootDur time.Duration
	for i, s := range spans {
		if s.parent < 0 {
			rootSelf += self[i]
			rootDur += s.dur
		}
	}
	return ratio(float64(rootSelf), float64(rootDur))
}

// writeChromeTrace writes the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per op.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		events[i] = event{Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Args: map[string]any{"op": s.op, "parent": parent, "self_us": float64(self[i]) / 1e3}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
