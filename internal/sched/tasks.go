// Package sched implements the paper's low-overhead work-stealing
// parallelization scheme (Section 4.2): per-worker task queues built
// round-robin over fixed vertex ranges (create_tasks, Listing 5), a
// lock-free task fetch that steals from other queues only after the local
// queue drains (fetch_task, Listing 6), and the parallel-for loop that the
// BFS kernels use in place of their sequential vertex loops (Listing 7).
// Stripes is the vertex layout those queues are cut from: the stride-aligned
// borders of Section 4.4 at which each worker's state begins, which the
// cluster's shards share as their vertex partition.
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

// Stripes lays the vertex range [0, n) out over parts owners as
// contiguous stripes whose borders are aligned to a stride (Section 4.4):
// ownership changes only at aligned borders, so no aligned unit (a page of
// the kernels' state, a bitset word of the cluster's vertex partition) ever
// straddles two owners, and every stripe that ends before n holds n/parts
// rounded up to the next stride, so memory share follows thread share.
// Tail stripes may be empty when n is small relative to parts·stride. It is
// the one border function of the tree: the kernels' worker stripes and the
// cluster's shard slices are both Stripes.
type Stripes struct {
	n, parts, per int
}

// NewStripes lays [0, n) out over parts stripes of per vertices each, per
// being n/parts rounded up to a multiple of stride. A parts or stride
// below one counts as one.
func NewStripes(n, parts, stride int) Stripes {
	parts, stride = max(parts, 1), max(stride, 1)
	per := (n + parts - 1) / parts
	per += (stride - per%stride) % stride
	return Stripes{n: n, parts: parts, per: max(per, stride)} // n = 0 still divides by a stride
}

// Clip cuts the layout at a ≤ N(), keeping its borders: every v < a keeps
// its owner, and the stripes past a are empty.
func (s Stripes) Clip(a int) Stripes {
	s.n = min(s.n, a)
	return s
}

// Range returns the vertex range [lo, hi) stripe p owns.
func (s Stripes) Range(p int) (lo, hi int) {
	return min(p*s.per, s.n), min((p+1)*s.per, s.n)
}

// Owner returns the stripe owning vertex v < N(); it does not clamp.
func (s Stripes) Owner(v int) int { return v / s.per }

// Per returns the stripe length: every stripe starts at a multiple of it.
func (s Stripes) Per() int { return s.per }

// Parts returns the number of stripes, empty ones included.
func (s Stripes) Parts() int { return s.parts }

// N returns the end of the layout.
func (s Stripes) N() int { return s.n }

// CreateStripeTasks builds stripe-affine task queues: worker w's queue
// holds the splitSize chunks of its own stripe s.Range(w) instead of a
// round-robin deal over the whole range. With this layout static fetch
// (FetchLocal) confines every worker to its own stripe — the property the
// first-touch placement relies on — while work stealing still crosses
// stripes for load balance.
func CreateStripeTasks(s Stripes, splitSize int) *TaskQueues {
	if splitSize < 1 {
		panic("sched: splitSize must be positive")
	}
	tq := &TaskQueues{
		queues:    make([]queue, s.Parts()),
		splitSize: splitSize,
		total:     s.N(),
	}
	for w := range tq.queues {
		lo, hi := s.Range(w)
		tasks := make([]Range, 0, (hi-lo+splitSize-1)/splitSize)
		for off := lo; off < hi; off += splitSize {
			tasks = append(tasks, Range{Lo: off, Hi: min(off+splitSize, hi)})
		}
		tq.queues[w].tasks = tasks
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
