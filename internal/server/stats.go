package server

import (
	"time"

	"repro/internal/obs"
)

// DefaultStatsInterval is the sampler cadence bfsd uses when -stats-interval
// is not set: one point per second per series, ~10 minutes of history at
// the store's default ring capacity.
const DefaultStatsInterval = time.Second

// StartStatsSampler begins sampling every metric table — each graph's and
// the engine's, the rows GET /metrics prints — into the registry's
// time-series store at the given interval (<=0: DefaultStatsInterval). The
// returned stop function halts the sampler and waits for its goroutine to
// exit.
func (r *Registry) StartStatsSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultStatsInterval
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		prev := make(map[string]sampled)
		// Baselines, so the first tick reports the first interval's rates
		// instead of all-time totals.
		r.sample(prev, time.Now())
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case now := <-ticker.C:
				r.sample(prev, now)
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// sampled is a counter or ratio series' previous reading.
type sampled struct {
	at       time.Time
	num, den float64
}

// sample takes one reading of every table at now and appends one point per
// series: a counter's per-second rate and a ratio's Δnum ÷ Δden since the
// series' previous reading (its first reading is only a baseline), a gauge
// or a quantile as read.
func (r *Registry) sample(prev map[string]sampled, now time.Time) {
	for _, t := range r.metricTables() {
		t.read(func(v metricValue) {
			name := t.seriesName(v)
			if v.kind == gauge || v.kind == quantiles {
				r.stats.Observe(name, now, v.num)
				return
			}
			old, ok := prev[name]
			prev[name] = sampled{now, v.num, v.den}
			switch {
			case !ok:
			case v.kind == counter:
				if dt := now.Sub(old.at).Seconds(); dt > 0 {
					r.stats.Observe(name, now, (v.num-old.num)/dt)
				}
			default:
				x := 0.0
				if dd := v.den - old.den; dd > 0 {
					x = (v.num - old.num) / dd
				}
				r.stats.Observe(name, now, x)
			}
		})
	}
}

// StatsSeries returns the registry's time-series store (fed by
// StartStatsSampler; empty until the sampler runs).
func (r *Registry) StatsSeries() *obs.TimeSeries { return r.stats }
