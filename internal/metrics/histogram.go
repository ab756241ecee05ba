package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-size log-bucketed histogram of non-negative int64
// values (latencies in nanoseconds, batch widths, queue depths, ...).
//
// The bucket layout is the classic "octave plus linear sub-buckets" scheme:
// values below histSub land in exact unit buckets; above that, each
// power-of-two octave is split into histSub linear sub-buckets, bounding the
// relative quantile error by 1/histSub (12.5%).
//
// Record uses atomic operations: a Histogram may be recorded into
// concurrently without external locking. Readers (Quantile, Mean, ...) see a
// near-consistent snapshot, which is the usual contract for live telemetry.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]int64 // accessed atomically
	count  int64
	sum    int64
	max    int64
}

const (
	histSubBits = 3
	// histSub linear sub-buckets per power-of-two octave.
	histSub = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: values below
	// histSub get exact buckets; each of the remaining octaves contributes
	// histSub buckets.
	histBuckets = (64 - histSubBits) * histSub
)

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift*histSub + int(v>>uint(shift))
}

// bucketUpper returns the largest value mapping to bucket i, the
// conservative (upper-bound) representative used for quantiles.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	mant := int64(histSub + i%histSub)
	return (mant+1)<<uint(shift) - 1
}

// Record adds one observation of v. Negative values clamp to 0.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.counts[bucketIndex(v)], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	for {
		old := atomic.LoadInt64(&h.max)
		if v <= old {
			break
		}
		if atomic.CompareAndSwapInt64(&h.max, old, v) {
			break
		}
	}
}

// RecordDuration adds one latency observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Mean returns the exact arithmetic mean of the recorded values (0 when
// empty); the sum is tracked outside the buckets, so the mean carries no
// bucketing error.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&h.sum)) / float64(n)
}

// Max returns the largest recorded value (0 when empty); exact.
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) of the
// recorded values, within one bucket (≤ 12.5% relative error). Empty
// histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	n := atomic.LoadInt64(&h.count)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank = number of observations that must lie at or below the answer.
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += atomic.LoadInt64(&h.counts[i])
		if seen >= rank {
			u := bucketUpper(i)
			if m := h.Max(); u > m {
				return m // never report beyond the observed maximum
			}
			return u
		}
	}
	return h.Max()
}

// P50, P95 and P99 are the quantiles the serving layer reports.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// DurationString summarizes a histogram of nanosecond latencies.
func (h *Histogram) DurationString() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), time.Duration(h.Mean()).Round(time.Microsecond),
		time.Duration(h.P50()).Round(time.Microsecond),
		time.Duration(h.P95()).Round(time.Microsecond),
		time.Duration(h.P99()).Round(time.Microsecond),
		time.Duration(h.Max()).Round(time.Microsecond))
}
