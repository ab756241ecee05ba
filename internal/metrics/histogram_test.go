package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketLayout(t *testing.T) {
	// Every value must land in a bucket whose range contains it, buckets
	// must be monotone, and the sub-unit range is exact.
	for v := int64(0); v < histSub; v++ {
		if got := bucketUpper(bucketIndex(v)); got != v {
			t.Fatalf("value %d: exact bucket upper = %d", v, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 999} {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("value %d: bucket %d out of range", v, i)
		}
		if u := bucketUpper(i); u < v {
			t.Errorf("value %d: bucket upper %d below value", v, u)
		}
		if i < prev {
			t.Errorf("value %d: bucket %d not monotone (prev %d)", v, i, prev)
		}
		prev = i
	}
	// Relative bucketing error is bounded by 1/histSub.
	for v := int64(histSub); v < 1<<20; v = v*7/6 + 1 {
		u := bucketUpper(bucketIndex(v))
		if float64(u-v)/float64(v) > 1.0/histSub {
			t.Fatalf("value %d: bucket upper %d exceeds 12.5%% error", v, u)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	values := make([]int64, 10000)
	for i := range values {
		values[i] = int64(r.ExpFloat64() * 1e6) // exponential latencies ~1ms
		h.Record(values[i])
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := values[int(q*float64(len(values)))-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%.2f: got %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*1.15+float64(histSub) {
			t.Errorf("q=%.2f: got %d, exact %d (> 12.5%% high)", q, got, exact)
		}
	}
	if h.Count() != 10000 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != values[len(values)-1] {
		t.Errorf("max = %d, want %d", h.Max(), values[len(values)-1])
	}
	var sum int64
	for _, v := range values {
		sum += v
	}
	if h.Sum() != sum {
		t.Errorf("sum = %d, want %d", h.Sum(), sum)
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Record(-5) // clamps to 0
	h.Record(0)
	if h.Sum() != 0 || h.Max() != 0 || h.Count() != 2 {
		t.Errorf("after zero records: sum=%d max=%d n=%d", h.Sum(), h.Max(), h.Count())
	}
	if h.Quantile(0.99) != 0 {
		t.Errorf("all-zero q99 = %d", h.Quantile(0.99))
	}
	// A single observation is every quantile.
	var one Histogram
	one.RecordDuration(3 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != int64(3*time.Millisecond) {
			t.Errorf("single-value q%.1f = %d", q, got)
		}
	}
}

// TestHistogramConcurrentRecord records from 8 goroutines into one shared
// histogram — the pattern server.Metrics relies on, one Histogram per
// series fed by every request goroutine. Under -race the detector must stay
// quiet, and count, sum, max and the bucket total must come out exact.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wantSum, wantMax int64
	for gr := 0; gr < goroutines; gr++ {
		r := rand.New(rand.NewSource(int64(gr)))
		for i := 0; i < per; i++ {
			v := int64(r.Intn(1 << 20))
			wantSum += v
			wantMax = max(wantMax, v)
		}
	}
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(r.Intn(1 << 20)))
			}
		}(int64(gr))
	}
	wg.Wait()
	if h.Count() != goroutines*per || h.Sum() != wantSum || h.Max() != wantMax {
		t.Errorf("count/sum/max = %d/%d/%d, want %d/%d/%d",
			h.Count(), h.Sum(), h.Max(), goroutines*per, wantSum, wantMax)
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i]
	}
	if total != goroutines*per {
		t.Errorf("bucket total = %d, want %d", total, goroutines*per)
	}
}

// TestHistogramScrapeDuringRecord reads a shared histogram while 8 goroutines
// are still recording into it — the serving layer's scrape-during-traffic
// pattern, where /metrics renders p99 while requests land. Every scrape must
// see a count that never goes back and quantiles within the observed
// maximum, the race detector must stay quiet, and the totals must come out
// exact once recording stops.
func TestHistogramScrapeDuringRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(r.Intn(1 << 20)))
			}
		}(int64(gr))
	}
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var last int64
		for {
			n := h.Count()
			if n < last {
				scraped <- fmt.Errorf("count went back: %d after %d", n, last)
				return
			}
			last = n
			for _, q := range []float64{0.5, 0.95, 0.99} {
				if v := h.Quantile(q); v < 0 || v > h.Max() {
					scraped <- fmt.Errorf("q=%.2f out of range: %d (max %d)", q, v, h.Max())
					return
				}
			}
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	var wantSum, wantMax int64
	for gr := 0; gr < goroutines; gr++ {
		r := rand.New(rand.NewSource(int64(gr)))
		for i := 0; i < per; i++ {
			v := int64(r.Intn(1 << 20))
			wantSum += v
			wantMax = max(wantMax, v)
		}
	}
	if h.Count() != goroutines*per || h.Sum() != wantSum || h.Max() != wantMax {
		t.Fatalf("count/sum/max = %d/%d/%d, want %d/%d/%d",
			h.Count(), h.Sum(), h.Max(), goroutines*per, wantSum, wantMax)
	}
	if q := h.Quantile(1); q != wantMax {
		t.Errorf("q=1 after recording = %d, want max %d", q, wantMax)
	}
}
