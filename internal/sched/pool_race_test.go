package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The pool stress tests exist for `go test -race`: they drive the
// work-stealing fetch protocol hard enough that a misordered cursor update
// or a data race between phases surfaces as a race report or a
// double-processed range.

// TestParallelForExactlyOnceStress runs many stealing phases back to back
// and checks after each that every vertex was processed exactly once —
// stale cursor reads in Fetch may cost an extra fetch-and-add but must
// never hand out a task twice.
func TestParallelForExactlyOnceStress(t *testing.T) {
	const (
		workers = 8
		total   = 20000
		split   = 64
		phases  = 30
	)
	p := NewPool(workers)
	defer p.Close()

	visits := make([]int64, total)
	for phase := 1; phase <= phases; phase++ {
		tq := CreateTasks(total, split, workers)
		p.Run(tq, true, func(_ int, r Range) {
			for v := r.Lo; v < r.Hi; v++ {
				atomic.AddInt64(&visits[v], 1)
			}
		})
		for v := 0; v < total; v++ {
			if got := atomic.LoadInt64(&visits[v]); got != int64(phase) {
				t.Fatalf("phase %d: vertex %d visited %d times, want %d", phase, v, got, phase)
			}
		}
	}
}

// TestParallelForStaticStress is the same exactly-once property for the
// no-stealing static schedule, reusing one TaskQueues via Reset the way the
// BFS kernels reuse their per-phase queues.
func TestParallelForStaticStress(t *testing.T) {
	const (
		workers = 8
		total   = 20000
		split   = 64
		phases  = 30
	)
	p := NewPool(workers)
	defer p.Close()

	tq := CreateTasks(total, split, workers)
	visits := make([]int64, total)
	for phase := 1; phase <= phases; phase++ {
		tq.Reset()
		p.Run(tq, false, func(_ int, r Range) {
			for v := r.Lo; v < r.Hi; v++ {
				atomic.AddInt64(&visits[v], 1)
			}
		})
		for v := 0; v < total; v++ {
			if got := atomic.LoadInt64(&visits[v]); got != int64(phase) {
				t.Fatalf("phase %d: vertex %d visited %d times, want %d", phase, v, got, phase)
			}
		}
	}
}

// TestConcurrentPools runs several independent pools at once, as the
// per-socket MS-PBFS runner does, and checks that their work does not
// bleed into each other.
func TestConcurrentPools(t *testing.T) {
	const (
		pools   = 4
		workers = 4
		total   = 8000
		split   = 128
	)
	var wg sync.WaitGroup
	sums := make([]int64, pools)
	for i := 0; i < pools; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewPool(workers)
			defer p.Close()
			tq := CreateTasks(total, split, workers)
			p.Run(tq, true, func(_ int, r Range) {
				atomic.AddInt64(&sums[i], int64(r.Len()))
			})
		}(i)
	}
	wg.Wait()
	for i, sum := range sums {
		if sum != total {
			t.Fatalf("pool %d: processed %d vertices, want %d", i, sum, total)
		}
	}
}

// TestFetchContendedDrain has every worker fetch from the same queues with
// maximal stealing pressure (tiny local queues) and checks the drain is
// complete and duplicate-free.
func TestFetchContendedDrain(t *testing.T) {
	const (
		workers = 16
		total   = 4096
		split   = 8
	)
	tq := CreateTasks(total, split, workers)
	visits := make([]int64, total)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			offset := 0
			for {
				r, ok := tq.Fetch(w, &offset)
				if !ok {
					return
				}
				for v := r.Lo; v < r.Hi; v++ {
					atomic.AddInt64(&visits[v], 1)
				}
			}
		}(w)
	}
	wg.Wait()

	for v := 0; v < total; v++ {
		if visits[v] != 1 {
			t.Fatalf("vertex %d fetched %d times, want exactly once", v, visits[v])
		}
	}
}
