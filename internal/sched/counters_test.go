package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

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
	p.ParallelFor(tq, func(_ int, r Range) {
		executed.Add(int64(r.Len()))
	})

	tasks := p.TaskCounts(nil)
	steals := p.StealCounts(nil)
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

	p.ParallelFor(tq, func(_ int, _ Range) {
		time.Sleep(2 * time.Millisecond) // let the idle workers catch up and steal
	})

	tasks := p.TaskCounts(nil)
	steals := p.StealCounts(nil)
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
	p.ParallelForStatic(tq, func(_ int, _ Range) {})
	if got := sum64(p.StealCounts(nil)); got != 0 {
		t.Errorf("static phase recorded %d steals, want 0", got)
	}
	if got, want := sum64(p.TaskCounts(nil)), int64(tq.NumTasks()); got != want {
		t.Errorf("total tasks = %d, want %d", got, want)
	}
}
