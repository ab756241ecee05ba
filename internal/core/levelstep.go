package core

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/sched"
)

// levelStep is the level-synchronous substrate MS-PBFS and SMS-PBFS are
// configured from — the paper derives the latter as the k = 1
// specialisation of the former (Section 3.2), so everything that does not
// depend on how a vertex's state is laid out lives here exactly once: shell
// construction and arena recycling, the worker-owned scatter substrate and
// its barrier merge, phase sequencing, and the per-iteration skeleton with
// its direction bookkeeping. A kernel embeds a levelStep, adds its state
// arrays, and binds its representation-specific loop bodies once per shell.
//
// The substrate is worker-owned: the vertex space is striped across workers
// at word-aligned borders, each worker's task queue holds its own stripe's
// tasks (stealing crosses stripes for load balance), and the top-down
// scatter writes worker-private shadow slabs with plain stores. A static
// merge phase at the barrier ORs the shadows into the canonical next,
// stripe by stripe, each stripe folded by its owner. See DESIGN.md §10.
type levelStep struct {
	shellRun

	// tq is the shell's one stripe-affine task layout: bottom-up, scatter,
	// resolve and zero run over it, and so (statically fetched) does the
	// shadow merge. A level's schedule is a function of (n, workers,
	// Options.SplitSize) only.
	tq *sched.TaskQueues

	// self is the kernel engine embedding this substrate — what a warm
	// checkout hands back to the kernel's constructor; bytes is the shell's
	// size while parked in the arena.
	self     any
	bytes    int64
	released bool

	// shadows is the worker-owned scatter target of the top-down phase.
	// wordMul/wordDiv map a task's vertex range onto the canonical words the
	// merge folds: vertex v starts at word v*wordMul/wordDiv (k-word rows:
	// mul = k, div = 1; bit and byte sets: mul = 1, div = vertices per word).
	shadows          *bitset.Shadows
	wordMul, wordDiv int
	// clean records that the state arrays are known all-zero (open's
	// first-touch pass just ran), letting the first run skip its zeroing
	// pass — on short traversals that pass was pure overhead.
	clean bool

	// Per-worker accumulators (cache-line padded), reset before every level:
	// neighbor entries examined, newly set BFS states, and the degree sum of
	// the vertices active in the produced frontier.
	scanned, updated, frontDeg []padCounter

	// Phase bodies, bound once per shell so per-iteration phase dispatch
	// allocates nothing; they read the ph* state, which the coordinating
	// goroutine rebinds between barriers. endLevel is the kernel's
	// between-levels hook: it folds the level's counters into dir, swaps the
	// frontier buffers (rebinding phCanon) and does any per-level upkeep of
	// its own.
	scatterBody, mergeBody, resolveBody, bottomUpBody, zeroBody func(int, sched.Range)
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
// selects.
type shellKey struct {
	n, words, split, workers int
	repr                     StateRepr
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
	key.n, key.split, key.workers = g.NumVertices(), opt.splitSize(), pool.Workers()
	run = shellRun{g: g, opt: opt, pool: pool, eng: eng, key: key}
	warm = eng.checkoutShell(key) //bfs:arena-held warm shell is handed to the kernel constructor; Close checks it back in via checkinShell
	return run, warm
}

// init allocates the shape-specific substrate of a fresh shell for kernel
// self: the stripe-affine task layout over word-aligned stripe borders, the
// shared counters, the merge body.
func (ls *levelStep) init(self any, key shellKey) {
	ls.self = self
	ls.tq = sched.CreateStripeTasks(numa.AlignedRanges(key.n, key.workers, splitStride), key.split)
	ls.scanned = make([]padCounter, key.workers)
	ls.updated = make([]padCounter, key.workers)
	ls.frontDeg = make([]padCounter, key.workers)
	ls.mergeBody = ls.mergeTask
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
	if debugInvariants && !ls.shadows.AllClear() {
		panic("bfsdebug: shell shadows dirty at checkout")
	}
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

// scrub zeroes the state arrays unless they are known clean. The static
// no-steal loop keeps the first-touch placement authoritative.
func (ls *levelStep) scrub() {
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
// a top-down level between the shadow merge and the resolve with the
// merged next's canonical words; an error from it ends the level there.
func (ls *levelStep) level(exchange func(next []uint64) error) error {
	opt, dir := ls.opt, &ls.dir
	ls.phDepth++
	iterStart := time.Now()

	var dirReason string
	ls.bottomUp, dirReason = dir.decide(opt, ls.bottomUp, ls.g.NumVertices())

	resetCounters(ls.scanned)
	resetCounters(ls.updated)
	resetCounters(ls.frontDeg)

	steal := !opt.DisableStealing
	var busy []time.Duration
	if ls.bottomUp {
		ls.tq.Reset()
		busy = ls.runPhase(ls.tq, steal, ls.bottomUpBody)
	} else {
		var err error
		if busy, err = ls.topDown(steal, exchange); err != nil {
			return err
		}
	}
	ls.endLevel()

	updated := sumCounters(ls.updated)
	ls.visited += updated

	ls.rec.noteMerge(ls.shadows)
	ls.rec.noteHeuristic(dir.frontEdges, dir.unexploredEdges)
	ls.rec.record(int(ls.phDepth), time.Since(iterStart), busy,
		dir.frontVertices, updated, sumCounters(ls.scanned), ls.visited, ls.bottomUp, dirReason,
		ls.scanned, ls.updated)
	return nil
}

// topDown runs one top-down level on the worker-owned substrate: scatter
// into private shadows (plain stores), OR-merge at the barrier (stripe
// owners, static fetch), the exchange if there is one, then the
// single-writer resolve sweep. Scatter writes go to worker-private shadows
// (the canonical slab for worker 0), the merge gives every word exactly one
// writer per stripe, the exchange runs between barriers on the coordinating
// goroutine, and resolve touches each vertex from exactly one worker, so no
// phase needs an atomic. Between scatter and merge, a traced run notes the
// scatter's steals.
func (ls *levelStep) topDown(steal bool, exchange func(next []uint64) error) ([]time.Duration, error) {
	ls.tq.Reset()
	busy := ls.runPhase(ls.tq, steal, ls.scatterBody)
	ls.rec.noteScatter()
	if ls.shadows.Workers() > 1 {
		// Static fetch confines each worker to its own stripe — the
		// single-writer guarantee of the merge.
		ls.tq.Reset()
		busy = sumBusy(busy, ls.runPhase(ls.tq, false, ls.mergeBody))
	}
	if exchange != nil {
		if err := exchange(ls.phCanon); err != nil {
			return nil, err
		}
	}
	ls.tq.Reset()
	return sumBusy(busy, ls.runPhase(ls.tq, steal, ls.resolveBody)), nil
}

// mergeTask publishes one stripe sub-range: the owner (static fetch makes
// workerID the stripe owner) folds every worker's shadow words into the
// canonical next and zeroes them. Plain stores only.
//
//bfs:nocas
//bfs:singlewriter stripe owner is the only writer of its canonical and shadow words between barriers
func (ls *levelStep) mergeTask(workerID int, r sched.Range) {
	// Task borders are multiples of 512 vertices (or n), so the rounding
	// only ever matters at the final partial word.
	loW := r.Lo * ls.wordMul / ls.wordDiv
	hiW := (r.Hi*ls.wordMul + ls.wordDiv - 1) / ls.wordDiv
	ls.shadows.MergeRange(workerID, ls.phCanon, loW, hiW)
}

// runPhase executes one parallel loop, with or without per-worker timing.
func (ls *levelStep) runPhase(tq *sched.TaskQueues, steal bool, body func(workerID int, r sched.Range)) []time.Duration {
	if ls.opt.PerWorkerTiming {
		return ls.pool.ParallelForTimed(tq, steal, body)
	}
	if steal {
		ls.pool.ParallelFor(tq, body)
	} else {
		ls.pool.ParallelForStatic(tq, body)
	}
	return nil
}

func sumBusy(a, b []time.Duration) []time.Duration {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
