package main

import (
	"sync"
	"sync/atomic"
	"time"

	msbfs "repro"
)

// phaseKind says what a stretch of the run's timeline is for.
type phaseKind int

const (
	warmup   phaseKind = iota // caches fill, lazy set-up finishes; nothing kept
	measured                  // tracing off: every timed number comes from these
	traced                    // tracing on: spans and per-layer numbers only
)

// timeline is a run's plan: consecutive phases from one start instant.
// The load runs through all of them without a pause, so a window never
// starts on a cold queue; samples are assigned to phases afterwards.
type timeline struct {
	start  time.Time
	kinds  []phaseKind
	bounds []time.Duration // bounds[i] is where phase i ends
}

func newTimeline(kinds []phaseKind, durs []time.Duration) *timeline {
	tl := &timeline{kinds: kinds}
	var t time.Duration
	for _, d := range durs {
		t += d
		tl.bounds = append(tl.bounds, t)
	}
	return tl
}

func (tl *timeline) total() time.Duration { return tl.bounds[len(tl.bounds)-1] }

func (tl *timeline) now() time.Duration { return time.Since(tl.start) }

// phaseAt is the index of the phase holding offset t, -1 past the end.
func (tl *timeline) phaseAt(t time.Duration) int {
	for i, b := range tl.bounds {
		if t < b {
			return i
		}
	}
	return -1
}

func (tl *timeline) span(i int) (from, to time.Duration) {
	if i > 0 {
		from = tl.bounds[i-1]
	}
	return from, tl.bounds[i]
}

// reply is what one executed operation reports back to its loop.
type reply struct {
	ok bool
	// ret is when the call into the program returned, before the harness
	// decoded and checked the answer.
	ret time.Duration
	// Server-reported split of a served read (wait_us / run_us).
	waitUS, runUS int64
	bytes         int    // response body length
	edges         int64  // Graph500 component edges of the op's sources
	opID          uint64 // response trace_id, else the op sequence
	direct        bool   // sent through Entry.Submit / Entry.ApplyEdges, not ServeHTTP
	iters         []msbfs.IterationStat
}

// sample is one operation as the harness saw it. Offsets are from the
// timeline's start.
type sample struct {
	reply
	write bool
	// due is when the op was scheduled (open loop) or sent (closed loop);
	// latency counts from it, so a stall is charged to every request it
	// delayed, not only to the one that hit it.
	due, sent, done time.Duration
	phase           int
}

func (s *sample) latencyMS() float64 { return float64(s.done-s.due) / float64(time.Millisecond) }

// opFunc executes operation seq; traced says whether the op was issued in
// a traced phase.
type opFunc func(seq int, traced bool) reply

// closedLoop runs callers goroutines that each send their next op when
// the previous one completed, until the timeline ends. An op belongs to
// the phase in which it completed; ops completing after the end are
// dropped.
func closedLoop(tl *timeline, callers int, op opFunc) []sample {
	var seq atomic.Int64
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sent := tl.now()
				p := tl.phaseAt(sent)
				if p < 0 {
					return
				}
				i := int(seq.Add(1) - 1)
				r := op(i, tl.kinds[p] == traced)
				done := tl.now()
				if dp := tl.phaseAt(done); dp >= 0 {
					per[c] = append(per[c], sample{reply: r, due: sent, sent: sent, done: done, phase: dp})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// openLoop sends op i at dues[i] whatever happened to the ops before it,
// each on its own goroutine, and waits for all of them. An op belongs to
// the phase in which it was due.
func openLoop(tl *timeline, dues []time.Duration, write bool, op opFunc) []sample {
	out := make([]sample, len(dues))
	var wg sync.WaitGroup
	for i, due := range dues {
		if d := due - tl.now(); d > 0 {
			time.Sleep(d)
		}
		p := tl.phaseAt(due)
		wg.Add(1)
		go func(i, p int, due time.Duration) {
			defer wg.Done()
			sent := tl.now()
			r := op(i, tl.kinds[p] == traced)
			out[i] = sample{reply: r, write: write, due: due, sent: sent, done: tl.now(), phase: p}
		}(i, p, due)
	}
	wg.Wait()
	return out
}

// every runs f at each tick until stop is closed.
func every(d time.Duration, stop <-chan struct{}, f func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			f()
		}
	}
}
