// Package sched implements the paper's low-overhead work-stealing
// parallelization scheme (Section 4.2): per-worker task queues built
// round-robin over fixed vertex ranges (create_tasks, Listing 5), a
// lock-free task fetch that steals from other queues only after the local
// queue drains (fetch_task, Listing 6), and the parallel-for loop that the
// BFS kernels use in place of their sequential vertex loops (Listing 7).
//
// The design exploits that within one parallel phase no new tasks ever
// appear, so a single atomic fetch-and-add per queue is the only
// synchronization on the hot path.
package sched

import (
	"fmt"
	"sync/atomic"
)

// Range is a half-open vertex id interval [Lo, Hi) processed as one task.
type Range struct {
	Lo, Hi int
}

// Empty reports whether the range contains no vertices.
func (r Range) Empty() bool { return r.Lo >= r.Hi }

// Len returns the number of vertices in the range.
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// queue is one worker's task queue. The atomic cursor is padded onto its
// own cache line so that cursor updates of one queue do not invalidate the
// cursors of neighboring queues.
type queue struct {
	next  atomic.Int64
	_     [56]byte // pad to a full 64-byte cache line
	tasks []Range
}

// TaskQueues is the per-phase task pool: one queue per worker.
type TaskQueues struct {
	queues    []queue
	splitSize int
	total     int
}

// DefaultSplitSize is the task range size found in the paper to have
// negligible (<1%) scheduling overhead on graphs with more than a million
// vertices (Section 4.2.1).
const DefaultSplitSize = 256

// CreateTasks builds the per-worker task queues for a loop over
// [0, total), following Listing 5: ranges of splitSize vertices are dealt
// round-robin to the workers, so queue lengths differ by at most one task.
func CreateTasks(total, splitSize, numWorkers int) *TaskQueues {
	if numWorkers < 1 {
		panic("sched: need at least one worker")
	}
	if splitSize < 1 {
		panic("sched: splitSize must be positive")
	}
	if total < 0 {
		panic("sched: negative loop bound")
	}
	tq := &TaskQueues{
		queues:    make([]queue, numWorkers),
		splitSize: splitSize,
		total:     total,
	}
	numTasks := (total + splitSize - 1) / splitSize
	perWorker := numTasks / numWorkers
	for w := range tq.queues {
		extra := 0
		if w < numTasks%numWorkers {
			extra = 1
		}
		tq.queues[w].tasks = make([]Range, 0, perWorker+extra)
	}
	cur := 0
	for offset := 0; offset < total; offset += splitSize {
		hi := offset + splitSize
		if hi > total {
			hi = total
		}
		w := cur % numWorkers
		tq.queues[w].tasks = append(tq.queues[w].tasks, Range{Lo: offset, Hi: hi})
		cur++
	}
	return tq
}

// CreateStripeTasks builds stripe-affine task queues: worker w's queue
// holds the splitSize chunks of its own contiguous stripe
// [bounds[w], bounds[w+1]) instead of a round-robin deal over the whole
// range. bounds must have one entry per worker plus a trailing total (the
// shape numa.AlignedRanges produces). With this layout static fetch
// (FetchLocal) confines every worker to its own stripe — the property the
// first-touch placement relies on — while work stealing still crosses
// stripes for load balance.
func CreateStripeTasks(bounds []int, splitSize int) *TaskQueues {
	if len(bounds) < 2 {
		panic("sched: stripe bounds need at least one worker")
	}
	if splitSize < 1 {
		panic("sched: splitSize must be positive")
	}
	numWorkers := len(bounds) - 1
	tq := &TaskQueues{
		queues:    make([]queue, numWorkers),
		splitSize: splitSize,
		total:     bounds[numWorkers],
	}
	for w := 0; w < numWorkers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo > hi || lo < 0 {
			panic("sched: stripe bounds must be monotone")
		}
		n := (hi - lo + splitSize - 1) / splitSize
		tq.queues[w].tasks = make([]Range, 0, n)
		for off := lo; off < hi; off += splitSize {
			end := off + splitSize
			if end > hi {
				end = hi
			}
			tq.queues[w].tasks = append(tq.queues[w].tasks, Range{Lo: off, Hi: end})
		}
	}
	return tq
}

// NumWorkers returns the number of per-worker queues.
func (tq *TaskQueues) NumWorkers() int { return len(tq.queues) }

// NumTasks returns the total number of tasks across all queues.
func (tq *TaskQueues) NumTasks() int {
	n := 0
	for i := range tq.queues {
		n += len(tq.queues[i].tasks)
	}
	return n
}

// WorkerTasks returns worker w's own task list (the ranges it processes
// when no stealing occurs). The slice aliases internal state and must not
// be modified.
func (tq *TaskQueues) WorkerTasks(w int) []Range { return tq.queues[w].tasks }

// Reset rewinds all queue cursors so the same task layout can be reused for
// another phase. It must not be called while workers are fetching.
func (tq *TaskQueues) Reset() {
	for i := range tq.queues {
		tq.queues[i].next.Store(0)
	}
}

// Fetch retrieves the next task for the given worker, implementing
// Listing 6. The worker first drains its own queue, then steals from the
// others in round-robin order. offsetHint persists the queue offset where
// the previous task was found so that every worker skips each drained queue
// at most once per phase; pass a pointer to a worker-local int initialized
// to 0. The boolean result is false once no tasks remain anywhere.
//
// The fast path is one atomic fetch-and-add on the worker's own queue. A
// drained queue is detected with a plain load before the fetch-and-add;
// because cursors only grow, a stale read can only cause one extra
// fetch-and-add, never a missed task.
func (tq *TaskQueues) Fetch(workerID int, offsetHint *int) (Range, bool) {
	queues := tq.queues
	nq := uint(len(queues))
	for tries := uint(0); tries < nq; tries++ {
		// Unsigned arithmetic lets the compiler prove both indexes in
		// bounds, so the steal loop Fetch inlines into stays check-free.
		q := &queues[uint(workerID+*offsetHint)%nq]
		if int(q.next.Load()) < len(q.tasks) {
			taskID := uint64(q.next.Add(1) - 1)
			if taskID < uint64(len(q.tasks)) {
				return q.tasks[taskID], true
			}
		}
		*offsetHint++
	}
	return Range{}, false
}

// FetchLocal retrieves the next task from the worker's own queue only,
// never stealing. It is used for the NUMA-placement-critical phases
// (parallel data structure initialization, Section 4.4) and for the static
// partitioning experiments.
func (tq *TaskQueues) FetchLocal(workerID int) (Range, bool) {
	q := &tq.queues[workerID]
	if int(q.next.Load()) >= len(q.tasks) {
		return Range{}, false
	}
	taskID := q.next.Add(1) - 1
	if int(taskID) >= len(q.tasks) {
		return Range{}, false
	}
	return q.tasks[taskID], true
}

// String summarizes the queue layout for debugging.
func (tq *TaskQueues) String() string {
	return fmt.Sprintf("TaskQueues{workers=%d tasks=%d split=%d total=%d}",
		len(tq.queues), tq.NumTasks(), tq.splitSize, tq.total)
}
