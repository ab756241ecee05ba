package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestStripes checks the layout every worker and shard border comes from:
// the parts tile [0, n) in order at stride-aligned interior borders, every
// part that ends before n holds n/parts to within one stride (so memory
// share follows thread share, Section 4.4), tail parts may be empty, Owner
// agrees with Range, and Clip keeps every owner below the cut.
func TestStripes(t *testing.T) {
	const page = 512
	cases := []struct {
		n, parts, stride int
		lens             []int // the parts' lengths, when pinned
	}{
		{n: 0, parts: 1, stride: 64}, {n: 1, parts: 1, stride: 64}, {n: 64, parts: 1, stride: 64},
		{n: 100, parts: 1, stride: 64}, {n: 1000, parts: 1, stride: 64}, {n: 7, parts: 0, stride: 0},
		{n: 1, parts: 2, stride: 64}, {n: 64, parts: 2, stride: 64}, {n: 100, parts: 2, stride: 64},
		{n: 128, parts: 2, stride: 64}, {n: 129, parts: 2, stride: 64}, {n: 513, parts: 2, stride: page},
		{n: 100, parts: 4, stride: 64, lens: []int{64, 36, 0, 0}}, // empty tail parts
		{n: 0, parts: 4, stride: 64}, {n: 10, parts: 4, stride: 64}, {n: 64, parts: 4, stride: 64},
		{n: 256, parts: 4, stride: 64}, {n: 1000, parts: 4, stride: 64}, {n: 1 << 16, parts: 4, stride: 64},
		{n: 1 << 16, parts: 3, stride: 64}, {n: 63, parts: 8, stride: 64}, {n: 64, parts: 8, stride: 64},
		{n: 10000, parts: 8, stride: 64}, {n: 1 << 15, parts: 10, stride: page},
		{n: page * 40, parts: 2, stride: page}, {n: page * 40, parts: 4, stride: page},
		{n: page * 100, parts: 10, stride: page},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d,parts=%d,stride=%d", c.n, c.parts, c.stride), func(t *testing.T) {
			s := NewStripes(c.n, c.parts, c.stride)
			parts, stride := max(c.parts, 1), max(c.stride, 1)
			if s.Parts() != parts || s.N() != c.n {
				t.Fatalf("Parts()=%d N()=%d, want %d and %d", s.Parts(), s.N(), parts, c.n)
			}
			share := float64(c.n) / float64(parts)
			end := 0
			for p := range parts {
				lo, hi := s.Range(p)
				if lo != end || hi < lo {
					t.Fatalf("part %d is [%d,%d), want it to start at %d", p, lo, hi, end)
				}
				if hi != c.n && hi%stride != 0 {
					t.Fatalf("interior border %d not stride-aligned", hi)
				}
				if d := float64(hi-lo) - share; hi != c.n && (d < 0 || d >= float64(stride)) {
					t.Errorf("part %d holds %d, want within one stride of %.1f", p, hi-lo, share)
				}
				if c.lens != nil && hi-lo != c.lens[p] {
					t.Errorf("part %d holds %d, want %d", p, hi-lo, c.lens[p])
				}
				end = hi
			}
			if end != c.n {
				t.Fatalf("parts end at %d, want %d", end, c.n)
			}
			for _, a := range []int{0, c.n / 3, c.n} {
				clipped := s.Clip(a)
				if clipped.N() != a || clipped.Parts() != parts || clipped.Per() != s.Per() {
					t.Fatalf("Clip(%d) = %+v: borders or end changed", a, clipped)
				}
				for v := range c.n {
					p := s.Owner(v)
					if lo, hi := s.Range(p); v < lo || v >= hi {
						t.Fatalf("Owner(%d)=%d but its range is [%d,%d)", v, p, lo, hi)
					}
					if v < a && clipped.Owner(v) != p {
						t.Fatalf("Clip(%d): Owner(%d)=%d, want %d", a, v, clipped.Owner(v), p)
					}
				}
			}
		})
	}
}

// pagesPerRegion counts the 512-element pages each region owns when
// [0, n) is striped at page borders over one part per worker and worker w
// sits in region regionOf[w].
func pagesPerRegion(n int, regionOf []int, regions int) []int {
	const page = 512
	s := NewStripes(n, len(regionOf), page)
	counts := make([]int, regions)
	for w, r := range regionOf {
		lo, hi := s.Range(w)
		counts[r] += (hi - lo) / page
	}
	return counts
}

// TestPageMapProportionalShare: the paper's placement rule (Section 4.4)
// gives a region a memory share proportional to its thread share, so two
// regions of one or two workers each split 40 pages evenly.
func TestPageMapProportionalShare(t *testing.T) {
	for _, regionOf := range [][]int{{0, 0, 1, 1}, {0, 1}} {
		if counts := pagesPerRegion(512*40, regionOf, 2); !slices.Equal(counts, []int{20, 20}) {
			t.Errorf("workers in regions %v: page counts = %v, want an even 20/20 split", regionOf, counts)
		}
	}
}

func TestProportionalMemoryShareAsymmetric(t *testing.T) {
	// The paper: "If 8 threads are located in NUMA region 0 and 2 threads
	// in region 1, 80% of the memory ... [is] in region 0 and 20% in
	// region 1."
	regionOf := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	if counts := pagesPerRegion(512*100, regionOf, 2); !slices.Equal(counts, []int{80, 20}) {
		t.Errorf("page counts = %v, want 80/20", counts)
	}
	// Four single-worker regions each hold a quarter of 40 pages.
	if counts := pagesPerRegion(512*40, []int{0, 1, 2, 3}, 4); !slices.Equal(counts, []int{10, 10, 10, 10}) {
		t.Errorf("page counts = %v, want 10 per region (proportional share)", counts)
	}
}

func TestCreateStripeTasksLayout(t *testing.T) {
	// Three workers over [0, 1000) with stripe borders 0/384/768/1000.
	stripes := NewStripes(1000, 3, 128)
	tq := CreateStripeTasks(stripes, 128)
	if tq.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d, want 3", tq.NumWorkers())
	}
	covered := 0
	for w := 0; w < 3; w++ {
		lo, hi := stripes.Range(w)
		if lo != 384*w || hi != min(384*(w+1), 1000) {
			t.Fatalf("stripe %d is [%d,%d), want the 0/384/768/1000 borders", w, lo, hi)
		}
		for _, r := range tq.WorkerTasks(w) {
			if r.Lo < lo || r.Hi > hi {
				t.Fatalf("worker %d task %v escapes stripe [%d,%d)", w, r, lo, hi)
			}
			covered += r.Len()
		}
	}
	if covered != 1000 {
		t.Fatalf("stripe tasks cover %d vertices, want 1000", covered)
	}
	// Static fetch must confine each worker to its own stripe.
	for w := 0; w < 3; w++ {
		lo, hi := stripes.Range(w)
		for {
			r, ok := tq.FetchLocal(w)
			if !ok {
				break
			}
			if r.Lo < lo || r.Hi > hi {
				t.Fatalf("FetchLocal(%d) returned %v outside stripe", w, r)
			}
		}
	}
}

func TestCreateStripeTasksEmptyStripe(t *testing.T) {
	// Trailing empty stripes (small n, many workers) must yield empty
	// queues, not panic.
	tq := CreateStripeTasks(NewStripes(512, 3, 512), 512)
	if got := len(tq.WorkerTasks(1)) + len(tq.WorkerTasks(2)); got != 0 {
		t.Fatalf("empty stripes produced %d tasks", got)
	}
	if tq.NumTasks() != 1 {
		t.Fatalf("NumTasks = %d, want 1", tq.NumTasks())
	}
}

func TestSoloPoolRunsInlineWithAccounting(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	tq := CreateTasks(1000, 100, 1)
	sum := 0
	p.Run(tq, true, func(workerID int, r Range) {
		if workerID != 0 {
			t.Errorf("solo phase ran with workerID %d", workerID)
		}
		sum += r.Len()
	})
	if sum != 1000 {
		t.Fatalf("solo phase covered %d vertices, want 1000", sum)
	}
	c := p.Counters(nil)[0]
	if c.Tasks != 10 || c.Steals != 0 {
		t.Fatalf("solo tasks/steals = %d/%d, want 10/0", c.Tasks, c.Steals)
	}
	if c.Busy <= 0 {
		t.Fatal("solo phase recorded no busy time")
	}
}

func TestSoloPoolPanicWrapped(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("solo phase panic did not propagate")
		}
		if !strings.Contains(r.(string), "worker panicked") {
			t.Fatalf("solo panic not wrapped like the worker path: %v", r)
		}
	}()
	p.Run(CreateTasks(10, 5, 1), true, func(int, Range) { panic("boom") })
}
