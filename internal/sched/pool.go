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

	// cells holds each worker's accounting (see workerCell).
	cells []workerCell

	// panics is the reusable worker-panic hand-off, drained at the end of
	// every phase, and done is the reusable phase barrier (a WaitGroup is
	// reusable once Wait has returned). One of each per pool (not per
	// phase) keeps Run allocation-free — phases run once per BFS
	// iteration, and a per-phase WaitGroup escapes to the heap.
	panics chan any
	done   sync.WaitGroup

	closed bool
}

// workerCell is one worker's accounting, padded to a full cache line:
// every worker bumps its cell once per task, and unpadded cells put up to
// four workers' counters on one line (the layout trick the kernels'
// padCounter uses). tasks and steals are atomics, because the tracing
// layer snapshots them between phases and a late worker of a previous
// phase must not race that read. busy, the worker's busy time in the
// current measured window (Figure 2's numerator), is written only by its
// worker during a phase and read by the driver between phases; the phase
// hand-off orders the two.
type workerCell struct {
	tasks  atomic.Int64
	steals atomic.Int64
	busy   time.Duration
	_      [40]byte
}

// Counters is one worker's accounting: the tasks it fetched and how many
// of them it stole from another worker's queue, both since the pool was
// created, and its busy time since the last ResetBusy.
type Counters struct {
	Tasks, Steals int64
	Busy          time.Duration
}

// phaseJob is one parallel phase: every worker runs the loop body over
// fetched task ranges until the queues drain.
type phaseJob struct {
	tq    *TaskQueues
	body  func(workerID int, r Range)
	steal bool
}

// NewPool starts a pool with the given number of workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic("sched: pool needs at least one worker")
	}
	p := &Pool{
		workers: workers,
		jobs:    make([]chan phaseJob, workers),
		cells:   make([]workerCell, workers),
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
		func() {
			defer func() {
				if r := recover(); r != nil {
					select {
					case p.panics <- r:
					default:
					}
				}
			}()
			p.drain(workerID, job)
		}()
		p.done.Done()
	}
}

// drain is the paper's parallel-for body (Listing 7) for one worker: fetch
// tasks and run body on them until the queues hold none, stealing from
// the other queues once the worker's own drains (Fetch) or, with steal
// off, from its own queue only (FetchLocal). It charges the tasks, steals
// and elapsed time to the worker's cell, the busy time even when body
// panics.
func (p *Pool) drain(workerID int, job phaseJob) {
	cell := &p.cells[workerID]
	start := time.Now()
	defer func() { cell.busy += time.Since(start) }()
	offsetHint := 0
	nq := job.tq.NumWorkers()
	//bfs:hot fetch loop: one atomic fetch per task, must not allocate
	for {
		var rg Range
		var ok bool
		if job.steal {
			rg, ok = job.tq.Fetch(workerID, &offsetHint)
		} else {
			rg, ok = job.tq.FetchLocal(workerID) //bfs:bounds-ok inlined queue-slot indexing; Run checks workerID < NumWorkers
		}
		if !ok {
			break
		}
		cell.tasks.Add(1)
		// Within a phase the queue cursors only advance, so the worker's
		// own queue never refills once the hint moved past it: a
		// successful fetch is a steal iff the hint points away from slot 0
		// (Fetch's round-robin visits the worker's own queue at hint
		// offset 0). FetchLocal never moves the hint.
		if offsetHint%nq != 0 {
			cell.steals.Add(1)
		}
		job.body(workerID, rg)
	}
}

// Run executes one parallel phase: every worker runs body over the task
// ranges it fetches from tq until no task remains, stealing from the
// other workers' queues once its own drains if steal is set, and
// processing exactly its own queue if not (the NUMA-deterministic
// initialization and the static-partitioning experiments). tq must hold
// one queue per worker; its cursors are consumed, so call tq.Reset to
// reuse the layout. Run blocks until the phase ends. If any worker's body
// panicked, Run re-panics the first panic in the caller's goroutine, so
// failures in parallel loops surface like failures in sequential ones.
//
// A one-worker pool drains the phase on the caller's goroutine: on small
// fixtures a single-source BFS runs tens of phases totalling ~100µs, and
// a channel hand-off plus a barrier per phase was the dominant cost.
func (p *Pool) Run(tq *TaskQueues, steal bool, body func(workerID int, r Range)) {
	if p.closed {
		panic("sched: pool used after Close")
	}
	if tq.NumWorkers() != p.workers {
		panic(fmt.Sprintf("sched: task layout has %d queues for a pool of %d workers", tq.NumWorkers(), p.workers))
	}
	job := phaseJob{tq: tq, body: body, steal: steal}
	if p.workers == 1 {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sched: worker panicked: %v", r))
			}
		}()
		p.drain(0, job)
		return
	}
	p.done.Add(p.workers)
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

// ResetBusy zeroes the accumulated per-worker busy time counters.
func (p *Pool) ResetBusy() {
	cells := p.cells
	for i := range cells {
		cells[i].busy = 0
	}
}

// Busy returns a copy of the accumulated per-worker busy times since the
// last ResetBusy. It must not be called while a phase is running.
func (p *Pool) Busy() []time.Duration {
	cells := p.cells
	out := make([]time.Duration, len(cells))
	for i := range cells {
		out[i] = cells[i].busy
	}
	return out
}

// Counters appends each worker's accounting to dst and returns it. Call
// between phases; a snapshot taken mid-phase is merely approximate.
func (p *Pool) Counters(dst []Counters) []Counters {
	cells := p.cells
	for i := range cells {
		c := &cells[i]
		dst = append(dst, Counters{Tasks: c.tasks.Load(), Steals: c.steals.Load(), Busy: c.busy})
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
