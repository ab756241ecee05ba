package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Flight-recorder bounds. The ring is deliberately small: it answers
// "what were the last few hundred requests doing" during an incident, not
// long-term analytics (that is what /metrics is for).
const (
	// flightCap bounds the recent-request ring.
	flightCap = 256
	// slowCap bounds the slow-query log.
	slowCap = 32
	// DefaultSlowQuery is the slow-query threshold when none is configured.
	DefaultSlowQuery = 250 * time.Millisecond
)

// RequestRecord is one request's flight-record entry, written when its
// batch demultiplexes (or when it is rejected at admission).
type RequestRecord struct {
	TraceID uint64 `json:"trace_id"`
	Graph   string `json:"graph"`
	Kind    string `json:"kind"`
	Source  int    `json:"source"`
	// Status is "ok", "rejected" (queue full) or "canceled" (caller gave
	// up before its batch ran).
	Status string    `json:"status"`
	Start  time.Time `json:"start"`
	// WaitMicros is the queue time before the serving batch was cut;
	// RunMicros the batch traversal time; TotalMicros the end-to-end
	// request latency as the coalescer observed it.
	WaitMicros  int64 `json:"wait_micros"`
	RunMicros   int64 `json:"run_micros"`
	TotalMicros int64 `json:"total_micros"`
	BatchWidth  int   `json:"batch_width,omitempty"`
}

// FlightRecorder keeps a bounded ring of recent request records plus a
// slow-query log of the slowest requests over a threshold. It also issues
// the per-request trace IDs that flow through coalescer batches into
// responses, so a slow-query log line can be matched to the client that
// saw it. All methods are safe for concurrent use and nil-safe: a nil
// recorder records nothing and issues trace ID 0.
type FlightRecorder struct {
	nextID atomic.Uint64

	slowThreshold time.Duration

	mu   sync.Mutex
	ring obs.Ring[RequestRecord]
	slow []RequestRecord // sorted slowest-first, capped at slowCap
}

// NewFlightRecorder builds a recorder that classifies requests at or over
// slowThreshold as slow (<=0: DefaultSlowQuery).
func NewFlightRecorder(slowThreshold time.Duration) *FlightRecorder {
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowQuery
	}
	return &FlightRecorder{slowThreshold: slowThreshold, ring: obs.NewRing[RequestRecord](flightCap)}
}

// NextTraceID issues a fresh nonzero trace ID. A nil recorder returns 0 —
// the "untraced" ID the JSON layer omits.
func (f *FlightRecorder) NextTraceID() uint64 {
	if f == nil {
		return 0
	}
	return f.nextID.Add(1)
}

// Record appends rec to the ring (evicting the oldest entry once full)
// and, when the request is slow, to the slow-query log. It reports
// whether the request crossed the slow threshold, so the caller can emit
// a log line for exactly the requests the slow log retains. Nil-safe.
func (f *FlightRecorder) Record(rec RequestRecord) bool {
	if f == nil {
		return false
	}
	isSlow := rec.Status == "ok" && time.Duration(rec.TotalMicros)*time.Microsecond >= f.slowThreshold
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring.Push(rec)
	if isSlow {
		f.recordSlowLocked(rec)
	}
	return isSlow
}

// recordSlowLocked inserts rec into the slowest-first slow log, evicting
// the least-slow entry when the log is at capacity. Caller holds f.mu.
func (f *FlightRecorder) recordSlowLocked(rec RequestRecord) {
	if len(f.slow) == slowCap {
		if rec.TotalMicros <= f.slow[len(f.slow)-1].TotalMicros {
			return // slower entries already fill the log
		}
		f.slow = f.slow[:len(f.slow)-1] // evict the least-slow entry
	}
	i := len(f.slow)
	f.slow = append(f.slow, rec)
	for i > 0 && f.slow[i-1].TotalMicros < rec.TotalMicros {
		f.slow[i] = f.slow[i-1]
		i--
	}
	f.slow[i] = rec
}

// FlightSnapshot is the /debug/flightrecorder payload: the retained
// request records oldest-first, the slow-query log slowest-first, and the
// lifetime totals.
type FlightSnapshot struct {
	Total         uint64          `json:"total_requests"`
	SlowThreshold string          `json:"slow_threshold"`
	Requests      []RequestRecord `json:"requests"`
	Slow          []RequestRecord `json:"slow"`
}

// Snapshot copies the recorder's current state. Nil-safe: a nil recorder
// yields a zero snapshot.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	reqs := f.ring.Copy()
	return FlightSnapshot{
		Total:         uint64(len(reqs)) + f.ring.Dropped(),
		SlowThreshold: f.slowThreshold.String(),
		Requests:      reqs,
		Slow:          append([]RequestRecord(nil), f.slow...),
	}
}
