package sched

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCreateTasksCoversRange(t *testing.T) {
	tq := CreateTasks(1000, 64, 4)
	covered := make([]int, 1000)
	for w := 0; w < 4; w++ {
		for _, r := range tq.WorkerTasks(w) {
			for v := r.Lo; v < r.Hi; v++ {
				covered[v]++
			}
		}
	}
	for v, c := range covered {
		if c != 1 {
			t.Fatalf("vertex %d covered %d times", v, c)
		}
	}
}

func TestCreateTasksRoundRobin(t *testing.T) {
	// 10 tasks over 3 workers: queue lengths must differ by at most one
	// and tasks must be dealt in order (task i -> worker i mod 3).
	tq := CreateTasks(1000, 100, 3)
	if tq.NumTasks() != 10 {
		t.Fatalf("NumTasks = %d, want 10", tq.NumTasks())
	}
	lens := []int{len(tq.WorkerTasks(0)), len(tq.WorkerTasks(1)), len(tq.WorkerTasks(2))}
	if lens[0] != 4 || lens[1] != 3 || lens[2] != 3 {
		t.Errorf("queue lengths = %v, want [4 3 3]", lens)
	}
	if tq.WorkerTasks(1)[0].Lo != 100 {
		t.Errorf("task 1 not dealt to worker 1: %+v", tq.WorkerTasks(1)[0])
	}
}

func TestCreateTasksPartialTail(t *testing.T) {
	tq := CreateTasks(130, 64, 2)
	var total int
	for w := 0; w < 2; w++ {
		for _, r := range tq.WorkerTasks(w) {
			total += r.Len()
		}
	}
	if total != 130 {
		t.Errorf("tasks cover %d vertices, want 130", total)
	}
}

func TestCreateTasksEmpty(t *testing.T) {
	tq := CreateTasks(0, 64, 3)
	if tq.NumTasks() != 0 {
		t.Errorf("NumTasks = %d, want 0", tq.NumTasks())
	}
	hint := 0
	if _, ok := tq.Fetch(0, &hint); ok {
		t.Error("Fetch on empty queues returned a task")
	}
}

func TestCreateTasksPanics(t *testing.T) {
	cases := []struct{ total, split, workers int }{
		{100, 64, 0}, {100, 0, 2}, {-1, 64, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CreateTasks(%d,%d,%d) did not panic", c.total, c.split, c.workers)
				}
			}()
			CreateTasks(c.total, c.split, c.workers)
		}()
	}
}

func TestFetchDrainsOwnQueueFirst(t *testing.T) {
	tq := CreateTasks(512, 64, 2) // 8 tasks, 4 per worker
	hint := 0
	own := tq.WorkerTasks(1)
	for i := 0; i < len(own); i++ {
		r, ok := tq.Fetch(1, &hint)
		if !ok {
			t.Fatal("Fetch failed on own queue")
		}
		if r != own[i] {
			t.Errorf("task %d: got %+v, want %+v (own queue order)", i, r, own[i])
		}
	}
	// Own queue drained: the next fetch must steal from worker 0.
	r, ok := tq.Fetch(1, &hint)
	if !ok {
		t.Fatal("steal failed")
	}
	if r != tq.WorkerTasks(0)[0] {
		t.Errorf("stolen task = %+v, want worker 0's first task", r)
	}
}

func TestFetchExactlyOnce(t *testing.T) {
	const total, split, workers = 10000, 64, 8
	tq := CreateTasks(total, split, workers)
	var mu sync.Mutex
	counts := make(map[Range]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hint := 0
			for {
				r, ok := tq.Fetch(w, &hint)
				if !ok {
					return
				}
				mu.Lock()
				counts[r]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(counts) != tq.NumTasks() {
		t.Fatalf("fetched %d distinct tasks, want %d", len(counts), tq.NumTasks())
	}
	for r, c := range counts {
		if c != 1 {
			t.Fatalf("task %+v fetched %d times", r, c)
		}
	}
}

func TestFetchLocalNeverSteals(t *testing.T) {
	tq := CreateTasks(512, 64, 2)
	var got []Range
	for {
		r, ok := tq.FetchLocal(0)
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != len(tq.WorkerTasks(0)) {
		t.Fatalf("FetchLocal returned %d tasks, want %d", len(got), len(tq.WorkerTasks(0)))
	}
	// Worker 1's queue untouched.
	if r, ok := tq.FetchLocal(1); !ok || r != tq.WorkerTasks(1)[0] {
		t.Error("FetchLocal(0) consumed worker 1's tasks")
	}
}

func TestReset(t *testing.T) {
	tq := CreateTasks(256, 64, 1)
	hint := 0
	for {
		if _, ok := tq.Fetch(0, &hint); !ok {
			break
		}
	}
	tq.Reset()
	hint = 0
	n := 0
	for {
		if _, ok := tq.Fetch(0, &hint); !ok {
			break
		}
		n++
	}
	if n != tq.NumTasks() {
		t.Errorf("after Reset fetched %d tasks, want %d", n, tq.NumTasks())
	}
}

// Property: for arbitrary sizes, tasks tile [0, total) exactly.
func TestQuickTasksTile(t *testing.T) {
	f := func(rawTotal uint16, rawSplit, rawWorkers uint8) bool {
		total := int(rawTotal) % 5000
		split := int(rawSplit)%200 + 1
		workers := int(rawWorkers)%16 + 1
		tq := CreateTasks(total, split, workers)
		covered := make([]bool, total)
		for w := 0; w < workers; w++ {
			prevHi := -1
			for _, r := range tq.WorkerTasks(w) {
				if r.Lo < 0 || r.Hi > total || r.Lo >= r.Hi || r.Lo <= prevHi {
					return false
				}
				prevHi = r.Lo
				for v := r.Lo; v < r.Hi; v++ {
					if covered[v] {
						return false
					}
					covered[v] = true
				}
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolParallelForProcessesAll(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const total = 100000
	tq := CreateTasks(total, 256, 4)
	var sum atomic.Int64
	p.Run(tq, true, func(_ int, r Range) {
		var local int64
		for v := r.Lo; v < r.Hi; v++ {
			local += int64(v)
		}
		sum.Add(local)
	})
	want := int64(total) * (total - 1) / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestPoolStaticPartitioning(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	tq := CreateTasks(900, 100, 3)
	var mu sync.Mutex
	byWorker := make(map[int][]Range)
	p.Run(tq, false, func(w int, r Range) {
		mu.Lock()
		byWorker[w] = append(byWorker[w], r)
		mu.Unlock()
	})
	for w := 0; w < 3; w++ {
		if len(byWorker[w]) != len(tq.WorkerTasks(w)) {
			t.Errorf("worker %d processed %d tasks, want %d (static must not steal)",
				w, len(byWorker[w]), len(tq.WorkerTasks(w)))
		}
		for _, r := range byWorker[w] {
			if (r.Lo/100)%3 != w {
				t.Errorf("worker %d processed foreign task %+v", w, r)
			}
		}
	}
}

func TestPoolReuseAcrossPhases(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tq := CreateTasks(1000, 128, 2)
	var count atomic.Int64
	for phase := 0; phase < 10; phase++ {
		tq.Reset()
		p.Run(tq, true, func(_ int, r Range) {
			count.Add(int64(r.Len()))
		})
	}
	if count.Load() != 10000 {
		t.Errorf("processed %d vertices, want 10000", count.Load())
	}
}

// TestPoolTimedReturnsPerWorker: one phase's per-worker busy time is the
// delta of Busy across it, the way the level recorder reads it, with one
// positive entry per worker even after an earlier phase.
func TestPoolTimedReturnsPerWorker(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Run(CreateTasks(64, 32, 2), true, func(int, Range) {})
	before := p.Busy()
	tq := CreateTasks(1024, 512, 2)
	p.Run(tq, true, func(_ int, r Range) {
		time.Sleep(2 * time.Millisecond)
	})
	after := p.Busy()
	if len(before) != 2 || len(after) != 2 {
		t.Fatalf("busy times for %d/%d workers, want 2", len(before), len(after))
	}
	for w := range after {
		if d := after[w] - before[w]; d <= 0 {
			t.Errorf("worker %d reported non-positive busy time %v", w, d)
		}
	}
}

func TestPoolBusyAccumulates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tq := CreateTasks(512, 256, 2)
	p.ResetBusy()
	p.Run(tq, true, func(_ int, _ Range) { time.Sleep(time.Millisecond) })
	busy := p.Busy()
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	if total <= 0 {
		t.Error("Busy() did not accumulate")
	}
	p.ResetBusy()
	for _, b := range p.Busy() {
		if b != 0 {
			t.Error("ResetBusy did not zero counters")
		}
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tq := CreateTasks(512, 256, 2)
	defer func() {
		if r := recover(); r == nil {
			t.Error("worker panic did not propagate to caller")
		} else if !strings.Contains(r.(string), "boom") {
			t.Errorf("unexpected panic payload: %v", r)
		}
	}()
	p.Run(tq, true, func(_ int, r Range) {
		if r.Lo == 0 {
			panic("boom")
		}
	})
}

func TestPoolSurvivesPanicAndKeepsWorking(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	tq := CreateTasks(512, 256, 2)
	func() {
		defer func() { recover() }()
		p.Run(tq, true, func(_ int, _ Range) { panic("first") })
	}()
	// The pool must still process work after a panicking phase.
	tq.Reset()
	var count atomic.Int64
	p.Run(tq, true, func(_ int, r Range) { count.Add(int64(r.Len())) })
	if count.Load() != 512 {
		t.Errorf("pool broken after panic: processed %d", count.Load())
	}
}

func TestPoolUseAfterClosePanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	p.Close() // double close is a no-op
	defer func() {
		if recover() == nil {
			t.Error("use after Close did not panic")
		}
	}()
	p.Run(CreateTasks(10, 5, 1), true, func(_ int, _ Range) {})
}

func TestPoolSingleWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	tq := CreateTasks(1000, 100, 1)
	order := []Range{}
	p.Run(tq, true, func(_ int, r Range) { order = append(order, r) })
	if len(order) != 10 {
		t.Fatalf("processed %d tasks", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i].Lo <= order[i-1].Lo {
			t.Error("single worker did not process tasks in order")
		}
	}
}

// TestPoolSingleWorkerSpawnsNoGoroutine: a one-worker pool drains every
// phase on the caller's goroutine, so it makes no job channel and starts
// no goroutine of its own; a pool of two starts two.
func TestPoolSingleWorkerSpawnsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	p := NewPool(1)
	if p.jobs != nil || p.panics != nil {
		t.Errorf("NewPool(1): %d job channels, panics channel %v", len(p.jobs), p.panics)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("NewPool(1): %d goroutines, %d before", got, before)
	}
	p.Run(CreateTasks(100, 10, 1), true, func(_ int, _ Range) {})
	p.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("NewPool(1) … Close(): %d goroutines, %d before", got, before)
	}
	p2 := NewPool(2)
	defer p2.Close()
	if got := runtime.NumGoroutine(); got != before+2 {
		t.Errorf("NewPool(2): %d goroutines, want %d", got, before+2)
	}
}

// settledGoroutines returns the goroutine count once it holds still for
// 10 ms: a closed pool's workers signal Close before they return, so an
// earlier test's may still be counted for a moment.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func TestRangeHelpers(t *testing.T) {
	if !(Range{3, 3}).Empty() || (Range{3, 4}).Empty() {
		t.Error("Empty broken")
	}
	if (Range{2, 7}).Len() != 5 || (Range{7, 2}).Len() != 0 {
		t.Error("Len broken")
	}
}

func TestTaskQueuesString(t *testing.T) {
	s := CreateTasks(100, 10, 2).String()
	if !strings.Contains(s, "workers=2") || !strings.Contains(s, "tasks=10") {
		t.Errorf("String() = %q", s)
	}
}
