package sched

import (
	"strings"
	"testing"
)

func TestCreateStripeTasksLayout(t *testing.T) {
	// Three workers over [0, 1000) with stripe borders 0/384/768/1000.
	bounds := []int{0, 384, 768, 1000}
	tq := CreateStripeTasks(bounds, 128)
	if tq.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d, want 3", tq.NumWorkers())
	}
	covered := 0
	for w := 0; w < 3; w++ {
		for _, r := range tq.WorkerTasks(w) {
			if r.Lo < bounds[w] || r.Hi > bounds[w+1] {
				t.Fatalf("worker %d task %v escapes stripe [%d,%d)", w, r, bounds[w], bounds[w+1])
			}
			covered += r.Len()
		}
	}
	if covered != 1000 {
		t.Fatalf("stripe tasks cover %d vertices, want 1000", covered)
	}
	// Static fetch must confine each worker to its own stripe.
	for w := 0; w < 3; w++ {
		for {
			r, ok := tq.FetchLocal(w)
			if !ok {
				break
			}
			if r.Lo < bounds[w] || r.Hi > bounds[w+1] {
				t.Fatalf("FetchLocal(%d) returned %v outside stripe", w, r)
			}
		}
	}
}

func TestCreateStripeTasksEmptyStripe(t *testing.T) {
	// A trailing empty stripe (small n, many workers) must yield an empty
	// queue, not panic.
	tq := CreateStripeTasks([]int{0, 512, 512, 512}, 512)
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
	p.ParallelFor(tq, func(workerID int, r Range) {
		if workerID != 0 {
			t.Errorf("solo phase ran with workerID %d", workerID)
		}
		sum += r.Len()
	})
	if sum != 1000 {
		t.Fatalf("solo phase covered %d vertices, want 1000", sum)
	}
	if counts := p.TaskCounts(nil); counts[0] != 10 {
		t.Fatalf("solo task count = %d, want 10", counts[0])
	}
	if busy := p.Busy(); busy[0] <= 0 {
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
	p.ParallelFor(CreateTasks(10, 5, 1), func(int, Range) { panic("boom") })
}
