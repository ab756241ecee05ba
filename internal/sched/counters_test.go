package sched

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// tasksAndSteals reads the task and steal columns of a Counters snapshot.
func tasksAndSteals(p *Pool) (tasks, steals []int64) {
	for _, c := range p.Counters(nil) {
		tasks = append(tasks, c.Tasks)
		steals = append(steals, c.Steals)
	}
	return tasks, steals
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestTaskCountsAccounting: every fetched task is counted exactly once,
// and a single-worker pool can never steal.
func TestTaskCountsAccounting(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	tq := CreateTasks(1000, 16, 4)

	var executed atomic.Int64
	p.Run(tq, true, func(_ int, r Range) {
		executed.Add(int64(r.Len()))
	})

	tasks, steals := tasksAndSteals(p)
	if len(tasks) != 4 || len(steals) != 4 {
		t.Fatalf("count vectors sized %d/%d, want 4/4", len(tasks), len(steals))
	}
	if got, want := sum64(tasks), int64(tq.NumTasks()); got != want {
		t.Errorf("total tasks counted = %d, want %d", got, want)
	}
	if executed.Load() != 1000 {
		t.Errorf("executed %d vertices, want 1000", executed.Load())
	}
	for w := range steals {
		if steals[w] > tasks[w] {
			t.Errorf("worker %d: steals %d > tasks %d", w, steals[w], tasks[w])
		}
	}
}

// TestStealCountsDetectSteals forces stealing by making one worker's
// queue hold all the work while the others' are empty: with a slow body,
// idle workers must fetch from the loaded queue and those fetches must be
// counted as steals.
func TestStealCountsDetectSteals(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()

	// All tasks land in worker 0's queue (built directly; CreateTasks
	// deals round-robin and cannot produce this skew).
	tq := &TaskQueues{queues: make([]queue, workers), splitSize: 10, total: 80}
	for lo := 0; lo < 80; lo += 10 {
		tq.queues[0].tasks = append(tq.queues[0].tasks, Range{Lo: lo, Hi: lo + 10})
	}

	p.Run(tq, true, func(_ int, _ Range) {
		time.Sleep(2 * time.Millisecond) // let the idle workers catch up and steal
	})

	tasks, steals := tasksAndSteals(p)
	if got, want := sum64(tasks), int64(8); got != want {
		t.Fatalf("total tasks = %d, want %d", got, want)
	}
	if steals[0] != 0 {
		t.Errorf("worker 0 stole %d tasks from its own full queue", steals[0])
	}
	var stolen int64
	for w := 1; w < workers; w++ {
		// Everything workers 1..3 ran came out of queue 0.
		if steals[w] != tasks[w] {
			t.Errorf("worker %d: tasks=%d steals=%d, want equal", w, tasks[w], steals[w])
		}
		stolen += steals[w]
	}
	if stolen == 0 {
		t.Error("no steals recorded despite a fully skewed queue layout")
	}
}

// TestStaticFetchNeverSteals: the static path counts tasks but can never
// record a steal.
func TestStaticFetchNeverSteals(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	tq := CreateTasks(300, 16, 3)
	p.Run(tq, false, func(_ int, _ Range) {})
	tasks, steals := tasksAndSteals(p)
	if got := sum64(steals); got != 0 {
		t.Errorf("static phase recorded %d steals, want 0", got)
	}
	if got, want := sum64(tasks), int64(tq.NumTasks()); got != want {
		t.Errorf("total tasks = %d, want %d", got, want)
	}
}

// TestRunPanicsOnLayoutMismatch: a layout must hold one queue per worker.
// Run refuses any other count, naming both, before any worker starts, so
// the pool stays usable; a one-worker pool is held to the same rule.
func TestRunPanicsOnLayoutMismatch(t *testing.T) {
	for _, tc := range []struct{ workers, queues int }{{2, 3}, {3, 2}, {1, 2}} {
		p := NewPool(tc.workers)
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				want := fmt.Sprintf("%d queues for a pool of %d workers", tc.queues, tc.workers)
				if !strings.Contains(msg, want) {
					t.Errorf("pool of %d, layout of %d queues: panic %v, want one naming %q", tc.workers, tc.queues, r, want)
				}
			}()
			p.Run(CreateTasks(100, 10, tc.queues), true, func(int, Range) {
				t.Errorf("pool of %d ran a task of a %d-queue layout", tc.workers, tc.queues)
			})
		}()
		var covered atomic.Int64
		p.Run(CreateTasks(100, 10, tc.workers), true, func(_ int, r Range) { covered.Add(int64(r.Len())) })
		if covered.Load() != 100 {
			t.Errorf("pool of %d after a refused layout covered %d vertices, want 100", tc.workers, covered.Load())
		}
		tasks, _ := tasksAndSteals(p)
		if got := sum64(tasks); got != 10 {
			t.Errorf("pool of %d: %d tasks counted, want 10 (a refused layout counts none)", tc.workers, got)
		}
		p.Close()
	}
}

// TestWorkerCellFillsOneLine: a worker's counters fill exactly one 64-byte
// cache line, so neighboring workers' task bumps never share one.
func TestWorkerCellFillsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(workerCell{}); got != 64 {
		t.Errorf("workerCell is %d bytes, want 64", got)
	}
}
