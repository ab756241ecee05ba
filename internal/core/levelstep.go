package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// levelStep is the level-synchronous substrate MS-PBFS and SMS-PBFS are
// configured from — the paper derives the latter as the k = 1
// specialisation of the former (Section 3.2), so everything that does not
// depend on how a vertex's state is laid out lives here exactly once: shell
// construction and arena recycling, the worker-owned scatter substrate and
// its barrier apply, phase sequencing, and the per-iteration skeleton with
// its direction bookkeeping. A kernel embeds a levelStep, adds its state
// arrays, and binds its representation-specific loop bodies once per shell.
//
// The substrate is worker-owned: the vertex space is striped across workers
// at word-aligned borders, each worker's task queue holds its own stripe's
// tasks (stealing crosses stripes for load balance), and the top-down
// scatter writes only the worker's own stripe of the canonical next, queuing
// the frontier vertices whose rows reach other stripes in per-destination
// inboxes. A static apply phase at the barrier has each stripe's owner write
// what was queued for it. See inbox.go and DESIGN.md §10.
type levelStep struct {
	shellRun

	// tq is the shell's one stripe-affine task layout: bottom-up, scatter,
	// resolve and zero run over it. applyTq cuts the same stripes into one
	// task each (nil at one worker). Both cover the active prefix only, so a
	// level's schedule is a function of (n, active, workers,
	// Options.SplitSize).
	tq, applyTq *sched.TaskQueues

	// self is the kernel engine embedding this substrate — what a warm
	// checkout hands back to the kernel's constructor; stateBytes is the
	// size of the kernel's arrays and scratch (memoryBytes adds the
	// inboxes).
	self       any
	stateBytes int64
	released   bool

	// active is the prefix the shell was built for: its state arrays and
	// tasks cover [0, active), which covers the active prefix of every run
	// the arena hands it (checkoutShell). Worker w owns stripes.Range(w):
	// the n-vertex layout's stripe, clipped to the active prefix. inboxes[w]
	// is worker w's outgoing scatter entries (nil at one worker).
	active  int
	stripes sched.Stripes
	inboxes []inbox
	// clean records that the state arrays are known all-zero (open's
	// first-touch pass just ran), letting the first run skip its zeroing
	// pass — on short traversals that pass was pure overhead.
	clean bool

	// Per-worker accumulators (cache-line padded), reset before every level:
	// neighbor entries written, newly set BFS states, the degree sum of the
	// vertices active in the produced frontier, and the inbox entries each
	// stripe owner applied.
	scanned, updated, frontDeg, applied []padCounter

	// Phase bodies, bound once per shell so per-iteration phase dispatch
	// allocates nothing; they read the ph* state, which the coordinating
	// goroutine rebinds between barriers. spread writes a segment of
	// vertex v's neighbors, all in the running worker's stripe, into next:
	// the apply's kernel body.
	// endLevel is the kernel's between-levels hook: it folds the level's
	// counters into dir, swaps the frontier buffers (rebinding phCanon) and
	// does any per-level upkeep of its own.
	scatterBody, applyBody, resolveBody, bottomUpBody, zeroBody func(int, sched.Range)
	spread                                                      func(v int, seg []graph.VertexID)
	endLevel                                                    func()

	// dir is the direction-heuristic state of the run in flight: begin
	// seeds it with the source frontier, level decides on it, endLevel
	// folds each level's counters into it.
	dir dirInputs

	// rec is the run's recorder, visited its running count of discovered
	// states and bottomUp the direction of the last level; begin arms them.
	rec      iterRecorder
	visited  int64
	bottomUp bool

	// phCanon is the canonical word slab of the buffer the coming level
	// writes (next); phDepth is that level's depth.
	phCanon []uint64
	phDepth int32
}

// shellKey is the run shape a shell can be recycled for. words is the row
// width of a k-wide shell and 0 for the boolean sets, whose layout repr
// selects. active is the run's active prefix (activePrefix): a shell built
// for it covers [0, active) and nothing past it, and serves any later run
// of the same shape whose prefix is no larger.
type shellKey struct {
	n, active, words, split, workers int
	repr                             StateRepr
}

// shape is the key without its active prefix: what the arena bounds its
// parked shells by.
func (k shellKey) shape() shellKey {
	k.active = 0
	return k
}

// shellRun is the run-specific half of a shell: what every constructor call
// binds afresh, whether the shape-specific half came warm from the arena or
// was just built. key is the shape the shell checks back into the arena
// under on Close.
type shellRun struct {
	g    *graph.Graph
	opt  Options
	pool *sched.Pool
	eng  *Engine
	key  shellKey
}

// beginShell resolves the run's engine and worker pool, completes key (the
// caller supplies the kernel's words/repr) and looks in the engine's arena
// for a warm shell of that shape. warm is nil on a miss: the kernel
// then builds its state on a levelStep it has called init on. Either way
// the constructor finishes with open(run, …).
func beginShell(g *graph.Graph, opt Options, key shellKey) (run shellRun, warm *levelStep) {
	eng := opt.engine()
	pool := eng.borrowPool(opt.workers()) //bfs:arena-held the shell owns the pool for its lifetime; Close hands it back via returnPool
	key.n, key.active = g.NumVertices(), activePrefix(g, opt.Overlay)
	key.split, key.workers = opt.splitSize(), pool.Workers()
	run = shellRun{g: g, opt: opt, pool: pool, eng: eng, key: key}
	warm = eng.checkoutShell(key) //bfs:arena-held warm shell is handed to the kernel constructor; Close checks it back in via checkinShell
	return run, warm
}

// activePrefix is the vertex range [0, a) a run's state must cover: the
// graph's active prefix, or all n vertices when an overlay has arcs (its
// endpoints may lie anywhere). No vertex at or above a has an arc, so none
// is ever discovered or scanned; a source there is seeded without state
// (DESIGN.md §10).
func activePrefix(g *graph.Graph, ov *graph.Overlay) int {
	if ov.Arcs() > 0 {
		return g.NumVertices()
	}
	return g.ActivePrefix()
}

// init allocates the shape-specific substrate of a fresh shell for kernel
// self: the stripe-affine task layout over word-aligned stripe borders, the
// inboxes, the shared counters, the apply body. The borders are those of
// the n-vertex layout clipped to the active prefix, so every active vertex
// keeps the owner it has without the clip.
func (ls *levelStep) init(self any, key shellKey) {
	ls.self, ls.active = self, key.active
	ls.stripes = sched.NewStripes(key.n, key.workers, sched.StripeStride).Clip(key.active)
	ls.tq = sched.CreateStripeTasks(ls.stripes, key.split)
	ls.initInboxes()
	ls.scanned = make([]padCounter, key.workers)
	ls.updated = make([]padCounter, key.workers)
	ls.frontDeg = make([]padCounter, key.workers)
	ls.applyBody = ls.applyTask
}

// open binds a warm or freshly built shell to its run: the run-specific
// references and the first-touch zero pass.
func (ls *levelStep) open(run shellRun) {
	ls.shellRun, ls.released = run, false

	// Parallel first-touch initialization without stealing, so each stripe's
	// pages are first touched by the worker that owns the stripe (Section
	// 4.4). For a recycled shell this pass doubles as the arena scrub: no
	// bits survive from the previous run, however it ended. It also marks
	// the shell clean, so the first run skips its zeroing pass instead of
	// re-scrubbing fresh arrays.
	ls.tq.Reset()
	ls.pool.ParallelForStatic(ls.tq, ls.zeroBody)
	ls.clean = true
}

// Close hands the instance back to its engine: the worker pool returns to
// the pool cache and the shell — states, counters, scratch — checks into
// the arena for the next same-shape run. Close is idempotent; the instance
// must not be used afterwards.
func (ls *levelStep) Close() {
	if ls.released {
		return
	}
	ls.released = true
	ls.eng.returnPool(ls.pool)
	ls.eng.checkinShell(ls)
}

// scrub zeroes the state arrays unless they are known clean, and empties
// the inboxes. The static no-steal loop keeps the first-touch placement
// authoritative.
func (ls *levelStep) scrub() {
	ls.clearInboxes()
	if !ls.clean {
		ls.tq.Reset()
		ls.pool.ParallelForStatic(ls.tq, ls.zeroBody)
	}
	ls.clean = false
}

// begin arms the level loop over a frontier the kernel just seeded: the
// run's recorder, its visited count, depth 0, the policy's first direction
// and the direction inputs. Overlay arcs count toward the unexplored-edge
// pool exactly as if they were already compacted into the CSR, so
// auto-direction decisions match between the two representations.
func (ls *levelStep) begin(rec iterRecorder, visited, frontVertices, frontEdges int64) {
	ls.rec, ls.visited, ls.phDepth = rec, visited, 0
	ls.bottomUp = ls.opt.Direction == BottomUpOnly
	ls.dir.seed(int64(len(ls.g.Adjacency)), ls.opt.Overlay.Arcs(), frontVertices, frontEdges)
}

// traverse runs levels from the seeded frontier until it drains or
// MaxDepth is reached.
func (ls *levelStep) traverse() {
	for ls.dir.frontVertices > 0 && (ls.opt.MaxDepth <= 0 || int(ls.phDepth) < ls.opt.MaxDepth) {
		ls.level(nil) // without an exchange a level cannot fail
	}
}

// level runs one BFS level: it picks the direction, runs the phases, folds
// the counters and records the level. exchange, when non-nil, is called on
// a top-down level between the apply and the resolve with next's canonical
// words; an error from it ends the level there.
func (ls *levelStep) level(exchange func(next []uint64) error) error {
	opt, dir := ls.opt, &ls.dir
	ls.phDepth++
	iterStart := time.Now()

	var dirReason string
	ls.bottomUp, dirReason = dir.decide(opt, ls.bottomUp, ls.g.NumVertices())

	resetCounters(ls.scanned)
	resetCounters(ls.updated)
	resetCounters(ls.frontDeg)
	resetCounters(ls.applied)

	steal := !opt.DisableStealing
	if ls.bottomUp {
		ls.tq.Reset()
		ls.runPhase(ls.tq, steal, ls.bottomUpBody)
	} else if err := ls.topDown(steal, exchange); err != nil {
		return err
	}
	ls.endLevel()
	if debugInvariants && !ls.inboxesEmpty() {
		panic("bfsdebug: an inbox entry outlived its level's apply")
	}

	updated := sumCounters(ls.updated)
	ls.visited += updated

	if ls.rec.on() {
		ls.rec.record(obs.IterationRecord{
			Iteration:        int(ls.phDepth),
			BottomUp:         ls.bottomUp,
			Reason:           dirReason,
			FrontierVertices: dir.frontVertices,
			UpdatedStates:    updated,
			ScannedEdges:     sumCounters(ls.scanned),
			Visited:          ls.visited,
			Duration:         time.Since(iterStart),
			WorkerScanned:    counterValues(ls.scanned),
			WorkerUpdated:    counterValues(ls.updated),
			FrontierEdges:    dir.frontEdges,
			UnexploredEdges:  dir.unexploredEdges,
			MergeWords:       sumCounters(ls.applied),
			WorkerMergeWords: counterValues(ls.applied),
		})
	}
	return nil
}

// topDown runs one top-down level on the worker-owned substrate: scatter
// (each worker writes its own stripe of next and queues the rest), the
// apply (stripe owners, static fetch), the exchange if there is one, then
// the single-writer resolve sweep. The scatter and the apply write only the
// running worker's stripe, the exchange runs between barriers on the
// coordinating goroutine, and resolve touches each vertex from exactly one
// worker, so no phase needs an atomic. Between scatter and apply, a
// recording run notes the scatter's steals.
func (ls *levelStep) topDown(steal bool, exchange func(next []uint64) error) error {
	ls.tq.Reset()
	ls.runPhase(ls.tq, steal, ls.scatterBody)
	ls.rec.noteScatter()
	if ls.applyTq != nil {
		ls.applyTq.Reset()
		ls.runPhase(ls.applyTq, false, ls.applyBody)
	}
	if exchange != nil {
		if err := exchange(ls.phCanon); err != nil {
			return err
		}
	}
	ls.tq.Reset()
	ls.runPhase(ls.tq, steal, ls.resolveBody)
	return nil
}

// runPhase executes one parallel loop, with or without stealing.
func (ls *levelStep) runPhase(tq *sched.TaskQueues, steal bool, body func(workerID int, r sched.Range)) {
	if steal {
		ls.pool.ParallelFor(tq, body)
	} else {
		ls.pool.ParallelForStatic(tq, body)
	}
}
