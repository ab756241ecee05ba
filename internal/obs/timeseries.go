package obs

import (
	"sync"
	"time"
)

// seriesCapacity is the per-series ring size: at the server's 1s sample
// cadence it retains 10 minutes of history, a few KiB per series.
const seriesCapacity = 600

// TimeSeries is a bounded, named time-series store: each series is a
// fixed-capacity ring of (time, value) points, appended at the sampler's
// cadence and snapshotted by window for /debug/stats and /debug/dash.
// Like the Tracer it is stdlib-only, nil-safe (a nil *TimeSeries drops
// observations and snapshots empty), and bounded — old points fall off
// the ring, nothing grows with uptime.
type TimeSeries struct {
	mu     sync.Mutex
	order  []string // registration order, so the dash layout is stable
	series map[string]*pointRing
}

// TSPoint is one sampled value.
type TSPoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// SeriesData is one series' windowed snapshot.
type SeriesData struct {
	Name   string    `json:"name"`
	Points []TSPoint `json:"points"`
}

type pointRing struct {
	buf  []TSPoint
	head int // index of the oldest point
	n    int
}

func (r *pointRing) push(p TSPoint) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = p
		r.n++
		return
	}
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
}

func (r *pointRing) at(i int) TSPoint { return r.buf[(r.head+i)%len(r.buf)] }

// NewTimeSeries returns a store retaining at most seriesCapacity points
// per series.
func NewTimeSeries() *TimeSeries {
	return &TimeSeries{series: make(map[string]*pointRing)}
}

// Observe appends one point to the named series, creating it on first
// use. Nil-safe no-op.
func (ts *TimeSeries) Observe(name string, t time.Time, v float64) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r := ts.series[name]
	if r == nil {
		r = &pointRing{buf: make([]TSPoint, seriesCapacity)}
		ts.series[name] = r
		ts.order = append(ts.order, name)
	}
	r.push(TSPoint{T: t, V: v})
}

// Snapshot copies out every series' points newer than now-window, in
// registration order (window <= 0 returns everything retained). Nil-safe:
// returns nil when ts is nil.
func (ts *TimeSeries) Snapshot(window time.Duration, now time.Time) []SeriesData {
	if ts == nil {
		return nil
	}
	cutoff := time.Time{}
	if window > 0 {
		cutoff = now.Add(-window)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]SeriesData, 0, len(ts.order))
	for _, name := range ts.order {
		r := ts.series[name]
		sd := SeriesData{Name: name}
		for i := 0; i < r.n; i++ {
			p := r.at(i)
			if p.T.Before(cutoff) {
				continue
			}
			sd.Points = append(sd.Points, p)
		}
		out = append(out, sd)
	}
	return out
}
