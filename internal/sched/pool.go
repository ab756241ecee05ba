package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a set of persistent worker goroutines that execute the parallel
// vertex loops of the BFS kernels. Workers are created once per BFS run and
// reused across phases and iterations, mirroring the paper's pinned worker
// threads; Go cannot pin them to CPUs, so NUMA placement is modeled by
// internal/bench from the flight record (see DESIGN.md §3).
type Pool struct {
	workers int
	jobs    []chan phaseJob
	wg      sync.WaitGroup

	// busy accumulates per-worker busy time for the current measured
	// window (Figure 2's numerator; the kernels' per-level records take
	// deltas of it); guarded by the phase handoff (written only by the
	// owning worker during a phase, read by the driver between phases).
	// Cells are cache-line padded: every worker bumps its slot once per
	// phase, and on short phases the unpadded layout put up to eight
	// workers' accumulators on one line.
	busy []busyCell

	// counts accumulates per-worker task/steal totals across phases.
	// Unlike busy, these are atomics: the tracing layer snapshots them
	// between iterations while no phase runs, but resetting from the
	// driver must not race a late worker in a prior pool lifetime.
	counts []taskCounter

	// panics is the reusable worker-panic hand-off, drained at the end of
	// every phase, and done is the reusable phase barrier (a WaitGroup is
	// reusable once Wait has returned). One of each per pool (not per
	// phase) keeps run allocation-free — phases run once per BFS
	// iteration, and a per-phase WaitGroup escapes to the heap.
	panics chan any
	done   sync.WaitGroup

	closed bool
}

// busyCell is one worker's busy-time accumulator, padded to a full cache
// line for the same reason as taskCounter.
type busyCell struct {
	d time.Duration
	_ [56]byte
}

// taskCounter is one worker's fetched-task accounting, padded so
// neighboring workers' increments do not share a cache line (the same
// layout trick the kernels' padCounter uses).
type taskCounter struct {
	tasks  atomic.Int64
	steals atomic.Int64
	_      [48]byte
}

// phaseJob is one parallel phase: every worker runs the loop body over
// fetched task ranges until the queues drain.
type phaseJob struct {
	tq     *TaskQueues
	body   func(workerID int, r Range)
	steal  bool
	done   *sync.WaitGroup
	panics chan any
}

// NewPool starts a pool with the given number of workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic("sched: pool needs at least one worker")
	}
	p := &Pool{
		workers: workers,
		jobs:    make([]chan phaseJob, workers),
		busy:    make([]busyCell, workers),
		counts:  make([]taskCounter, workers),
		panics:  make(chan any, 1),
	}
	for w := 0; w < workers; w++ {
		p.jobs[w] = make(chan phaseJob, 1)
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) workerLoop(workerID int) {
	defer p.wg.Done()
	for job := range p.jobs[workerID] {
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					select {
					case job.panics <- r:
					default:
					}
				}
			}()
			offsetHint := 0
			ctr := &p.counts[workerID]
			nq := job.tq.NumWorkers()
			if job.steal {
				//bfs:hot steal loop: one atomic fetch per task, must not allocate
				for {
					rg, ok := job.tq.Fetch(workerID, &offsetHint)
					if !ok {
						break
					}
					ctr.tasks.Add(1)
					// Within a phase the queue cursors only advance, so
					// the worker's own queue never refills once the hint
					// moved past it: a successful fetch is a steal iff
					// the hint points away from slot 0 (Fetch's
					// round-robin visits the worker's own queue at hint
					// offset 0).
					if offsetHint%nq != 0 {
						ctr.steals.Add(1)
					}
					job.body(workerID, rg)
				}
			} else {
				//bfs:hot static fetch loop: one atomic fetch per task, must not allocate
				for {
					rg, ok := job.tq.FetchLocal(workerID) //bfs:bounds-ok inlined queue-slot indexing; workerID < NumWorkers by construction
					if !ok {
						break
					}
					ctr.tasks.Add(1)
					job.body(workerID, rg)
				}
			}
		}()
		p.busy[workerID].d += time.Since(start)
		job.done.Done()
	}
}

// run executes one phase and blocks until all workers have drained the
// queues. If any worker's body panicked, run re-panics the first panic in
// the caller's goroutine so failures in parallel loops surface like
// failures in sequential ones.
func (p *Pool) run(tq *TaskQueues, steal bool, body func(workerID int, r Range)) {
	if p.closed {
		panic("sched: pool used after Close")
	}
	if p.workers == 1 {
		// Solo fast path: run the phase on the caller's goroutine instead
		// of a channel handoff + WaitGroup barrier per phase. On small
		// fixtures a single-source BFS runs tens of phases totalling ~100µs,
		// and two goroutine wakeups per phase were the dominant cost (the
		// smspbfs/bit outlier in the committed trajectory). Accounting is
		// identical to the worker path: busy time, task/steal counters, and
		// the panic wrapper all behave as if worker 0 ran the phase.
		p.runSolo(tq, body)
		return
	}
	p.done.Add(p.workers)
	job := phaseJob{tq: tq, body: body, steal: steal, done: &p.done, panics: p.panics}
	for w := 0; w < p.workers; w++ {
		p.jobs[w] <- job
	}
	p.done.Wait()
	select {
	case r := <-p.panics:
		panic(fmt.Sprintf("sched: worker panicked: %v", r))
	default:
	}
}

// runSolo executes one phase inline on the caller's goroutine. It uses the
// general Fetch path so a multi-queue layout (stripe tasks) still drains
// completely, and mirrors the worker loop's accounting and panic wrapping.
func (p *Pool) runSolo(tq *TaskQueues, body func(workerID int, r Range)) {
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sched: worker panicked: %v", r))
			}
		}()
		offsetHint := 0
		ctr := &p.counts[0]
		nq := tq.NumWorkers()
		//bfs:hot solo fetch loop: one atomic fetch per task, must not allocate
		for {
			rg, ok := tq.Fetch(0, &offsetHint)
			if !ok {
				break
			}
			ctr.tasks.Add(1)
			if offsetHint%nq != 0 {
				ctr.steals.Add(1)
			}
			body(0, rg)
		}
	}()
	p.busy[0].d += time.Since(start)
}

// ParallelFor runs body over all vertex ranges of tq with work stealing.
// The queues' cursors are consumed; call tq.Reset to reuse the layout.
func (p *Pool) ParallelFor(tq *TaskQueues, body func(workerID int, r Range)) {
	p.run(tq, true, body)
}

// ParallelForStatic runs body with stealing disabled: every worker
// processes exactly its own queue. Used for NUMA-deterministic
// initialization and the static-partitioning experiments.
func (p *Pool) ParallelForStatic(tq *TaskQueues, body func(workerID int, r Range)) {
	p.run(tq, false, body)
}

// ResetBusy zeroes the accumulated per-worker busy time counters.
func (p *Pool) ResetBusy() {
	busy := p.busy
	for i := range busy {
		busy[i].d = 0
	}
}

// Busy returns a copy of the accumulated per-worker busy times since the
// last ResetBusy. It must not be called while a phase is running.
func (p *Pool) Busy() []time.Duration {
	busy := p.busy
	out := make([]time.Duration, len(busy))
	for i := range busy {
		out[i] = busy[i].d
	}
	return out
}

// TaskCounts appends each worker's cumulative fetched-task count (since
// pool creation) to dst and returns it. Call between phases; a snapshot
// taken mid-phase is merely approximate.
func (p *Pool) TaskCounts(dst []int64) []int64 {
	for i := range p.counts {
		dst = append(dst, p.counts[i].tasks.Load())
	}
	return dst
}

// StealCounts appends each worker's cumulative steal count — tasks
// fetched from another worker's queue — to dst and returns it.
func (p *Pool) StealCounts(dst []int64) []int64 {
	for i := range p.counts {
		dst = append(dst, p.counts[i].steals.Load())
	}
	return dst
}

// Close shuts the workers down. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.jobs {
		close(ch)
	}
	p.wg.Wait()
}
