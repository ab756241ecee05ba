package core

import (
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// MSPBFS runs the parallel multi-source BFS of Section 3. Sources are
// processed in batches of up to 64*BatchWords concurrent BFSs; all workers
// cooperate on each batch (one multi-source BFS saturates the machine, the
// property Figure 2 demonstrates). The same code path runs sequentially
// when Workers is 1 — the paper's point that the parallelization overhead
// is negligible means no separate sequential implementation is needed.
func MSPBFS(g *graph.Graph, sources []int, opt Options) *MultiResult {
	e := NewMSPBFSEngine(g, opt)
	defer e.Close()
	return e.Run(sources, nil)
}

// MSPBFSEngine holds the reusable state of an MS-PBFS instance: the three
// per-vertex bitset arrays and per-worker scratch on top of the shared
// level-step substrate (worker pool, stripe-affine task layout, scatter
// inboxes). Reusing an engine across batches amortizes allocation, matching
// the paper's "initialize large data structures once" design (Section 4.4).
type MSPBFSEngine struct {
	levelStep

	seen  *bitset.State
	buf0  *bitset.State // frontier/next double buffer
	buf1  *bitset.State
	words int
	// mask is the reusable active-mask buffer (the per-batch replacement
	// for State.FullMask, which allocates).
	mask []uint64

	// Per-worker accumulators beyond the substrate's (cache-line padded):
	// vertices active in the produced frontier and the degree newly removed
	// from the unexplored set. finishLevel folds them into the direction
	// inputs and clears them for the next level.
	frontVtx, unseenDeg []padCounter

	// Per-worker bottom-up scratch rows.
	scratch [][]uint64
	// Per-worker OR of the frontier bits produced this iteration; their
	// union is the next iteration's active mask. A BFS whose frontier
	// drained can never discover anything again, so removing its bit lets
	// the bottom-up skip and early-exit checks fire even when some of the
	// batch's sources sit in small components (without this, one finished
	// BFS would force full neighbor scans for the rest of the run).
	liveBits [][]uint64

	// Per-iteration phase state (written between barriers only).
	phFrontier    *bitset.State
	phNext        *bitset.State
	phMask        []uint64
	phLevels      [][]int32
	phBatchOffset int

	// visit is the visitor of the call in flight (Run, or Seed and its
	// Steps), nil when it has none. Close drops it, so a parked shell pins
	// no caller closure.
	visit func(workerID, sourceIdx, vertex, depth int)

	// dbgSeen threads the seen population through the bfsdebug
	// per-iteration checks (unused otherwise).
	dbgSeen int64
}

// NewMSPBFSEngine prepares an instance. Close must be called to hand the
// worker pool and the state arrays back to the engine's arena.
func NewMSPBFSEngine(g *graph.Graph, opt Options) *MSPBFSEngine {
	words := opt.batchWords()
	run, warm := beginShell(g, opt, shellKey{words: words})
	var e *MSPBFSEngine
	if warm != nil {
		e = warm.self.(*MSPBFSEngine)
	} else {
		e = newMSPBFSShell(run, words)
	}
	e.open(run)
	if debugInvariants {
		debugCheckBorrowedClean("MS-PBFS shell",
			e.seen.CountAll()+e.buf0.CountAll()+e.buf1.CountAll())
	}
	return e
}

// newMSPBFSShell builds the shape-specific half of a fresh instance: state
// arrays over the active prefix, per-worker scratch and the bound phase
// bodies.
func newMSPBFSShell(run shellRun, words int) *MSPBFSEngine {
	active, workers := run.key.active, run.key.workers
	e := &MSPBFSEngine{
		seen:      bitset.NewState(active, words),
		buf0:      bitset.NewState(active, words),
		buf1:      bitset.NewState(active, words),
		words:     words,
		mask:      make([]uint64, words),
		frontVtx:  make([]padCounter, workers),
		unseenDeg: make([]padCounter, workers),
		scratch:   make([][]uint64, workers),
		liveBits:  make([][]uint64, workers),
	}
	e.init(e, run.key)
	e.stateBytes = e.seen.MemoryBytes() + e.buf0.MemoryBytes() + e.buf1.MemoryBytes()
	for w := range e.scratch {
		e.scratch[w] = make([]uint64, words)
		// Pad each row to a cache line so per-worker OR accumulation does
		// not false-share.
		e.liveBits[w] = make([]uint64, words, words+8)
		e.stateBytes += int64(cap(e.scratch[w])+cap(e.liveBits[w])) * 8
	}
	e.spread = e.spreadRow
	e.scatterBody = e.scatterTask
	e.resolveBody = e.resolveTask
	e.bottomUpBody = e.bottomUpTask
	e.zeroBody = func(_ int, r sched.Range) {
		e.seen.ZeroRange(r.Lo, r.Hi)
		e.buf0.ZeroRange(r.Lo, r.Hi)
		e.buf1.ZeroRange(r.Lo, r.Hi)
	}
	e.endLevel = e.finishLevel
	return e
}

// Run processes all sources in batches and aggregates the result. visit,
// when non-nil, is called for every (source, vertex) discovery with its
// depth, sourceIdx being the source's index in sources, and only during
// this call. It is invoked concurrently from worker goroutines;
// implementations typically accumulate into workerID-indexed buckets.
func (e *MSPBFSEngine) Run(sources []int, visit func(workerID, sourceIdx, vertex, depth int)) *MultiResult {
	e.pool.ResetBusy()
	e.visit = visit
	res := runBatches(sources, e.opt, e.runBatch)
	e.visit = nil
	res.WorkerBusy = e.pool.Busy()
	return res
}

// Close drops the visitor and hands the instance back to its engine
// (levelStep.Close). A second Close writes nothing: the arena may have
// handed the shell on.
func (e *MSPBFSEngine) Close() {
	if !e.released {
		e.visit = nil
	}
	e.levelStep.Close()
}

// runBatch executes one batch of k <= 64*words concurrent BFSs under the
// visitor Run bound (none for MSPBFSPerSocket's instances).
func (e *MSPBFSEngine) runBatch(batch []int, batchOffset int) batchOut {
	start := time.Now()
	var levels [][]int32
	if e.opt.RecordLevels {
		levels = newLevelRows(e.g.NumVertices(), len(batch))
	}
	e.Seed(batch, batchOffset, levels, e.visit)
	e.traverse()

	if debugInvariants && levels != nil && e.opt.MaxDepth <= 0 {
		for i := range levels {
			debugCheckLevels(e.g, e.opt.Overlay, batch[i], levels[i], "MS-PBFS")
		}
	}

	e.rec.finish()
	return batchOut{levels: levels, visited: e.visited,
		stat: metrics.RunStat{Elapsed: time.Since(start), Sources: len(batch), Iterations: e.rec.stats}}
}

// Seed starts one batch of k <= 64*words BFSs, source batch[i] on bit i:
// it scrubs the state and sets every source at depth 0. levels, when
// non-nil, holds the caller's k n-long rows, filled with NoLevel: Seed and
// every Step write the batch's depths into them. visit, when non-nil,
// takes the batch's discoveries as Run's does, from this call until the
// next Seed or Close; batchOffset is batch[0]'s index among the caller's
// sources, as visit reports it. Run drives the levels itself; a caller that
// needs control between levels calls Step once per level.
func (e *MSPBFSEngine) Seed(batch []int, batchOffset int, levels [][]int32, visit func(workerID, sourceIdx, vertex, depth int)) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	k := len(batch)

	// Reset state from any previous batch (skipped when the constructor's
	// first-touch scrub just ran). The recorder opens after it, so the
	// scrub's tasks are not charged to the first level.
	e.scrub()
	rec := newIterRecorder(opt, "ms-pbfs", k, e.pool)

	e.bindBuffers(e.buf0, e.buf1)
	e.phMask = fillMask(e.mask, k)
	e.phLevels, e.phBatchOffset, e.visit = levels, batchOffset, visit
	for w := range e.liveBits {
		for i := range e.liveBits[w] {
			e.liveBits[w][i] = 0 //bfs:singlewriter reset before the batch starts on the coordinating goroutine
		}
	}
	resetCounters(e.frontVtx)
	resetCounters(e.unseenDeg)

	// Seed the batch, simultaneously accumulating the heuristic state
	// (aggregate over the batch, GAPBS-style): a source not yet seen by any
	// earlier index is a distinct frontier vertex. A source past the active
	// prefix has no state row: it is an isolated frontier vertex the first
	// time the batch names it, and nothing else of the run sees it.
	frontVertices := int64(0)
	frontEdges := int64(0)
	for i, s := range batch {
		if s >= e.active {
			if !slices.Contains(batch[:i], s) {
				frontVertices++
			}
		} else {
			if !e.seen.Any(s) {
				frontVertices++
				frontEdges += int64(g.Degree(s))
				if ov != nil {
					frontEdges += int64(ov.ExtraDegree(s))
				}
			}
			e.seen.Set(s, i)
			e.phFrontier.Set(s, i)
		}
		if levels != nil {
			levels[i][s] = 0
		}
		if visit != nil {
			visit(0, batchOffset+i, s, 0)
		}
	}
	if debugInvariants {
		e.dbgSeen = int64(e.seen.CountAll())
	}
	e.begin(rec, int64(k), frontVertices, frontEdges)
}

// Step runs the next level of the batch Seed started and returns the
// frontier vertices it produced, the states it discovered and the edges it
// scanned. exchange, when non-nil, is called on a top-down level after the
// apply and before the resolve, with next's canonical words (one
// BatchWords-wide row per vertex, in vertex order): what it leaves there
// is what the resolve folds into seen. Its error ends the level and is returned; the batch is
// then unusable until the next Seed.
func (e *MSPBFSEngine) Step(exchange func(next []uint64) error) (frontier, discovered, scanned int64, err error) {
	err = e.level(exchange)
	return e.dir.frontVertices, sumCounters(e.updated), sumCounters(e.scanned), err
}

// Frontier lends the canonical words of the frontier the last Step
// produced (after Seed, the sources'): one BatchWords-wide row per vertex
// of the active prefix, in vertex order. Each bit is a (vertex, source)
// state that level discovered, whichever direction it ran. The words stay
// valid until the next Step, Seed or Close; the caller must not write them.
func (e *MSPBFSEngine) Frontier() []uint64 { return e.phFrontier.Words() }

// bindBuffers points the coming level at its frontier and next buffers.
func (e *MSPBFSEngine) bindBuffers(frontier, next *bitset.State) {
	e.phFrontier, e.phNext, e.phCanon = frontier, next, next.Words()
}

// finishLevel is the between-levels hook: it folds the level's counters
// into the direction inputs, shrinks the active mask to the BFSs that still
// have a frontier (drained BFSs can never discover new vertices), clearing
// the per-worker counters and live bits for the next level, and swaps the
// frontier buffers.
func (e *MSPBFSEngine) finishLevel() {
	e.dir.applyIteration(e.frontVtx, e.frontDeg, e.unseenDeg)
	resetCounters(e.frontVtx)
	resetCounters(e.unseenDeg)
	for i := range e.phMask {
		var live uint64
		for w := range e.liveBits {
			live |= e.liveBits[w][i]
			e.liveBits[w][i] = 0 //bfs:singlewriter reset between phases on the coordinating goroutine
		}
		e.phMask[i] = live //bfs:singlewriter mask rebuild between phases on the coordinating goroutine
	}
	if debugInvariants {
		e.dbgSeen = debugCheckBatchIteration(e.seen, e.phNext, e.dbgSeen, sumCounters(e.updated), "MS-PBFS", e.phDepth)
	}
	e.bindBuffers(e.phNext, e.phFrontier)
}

// scatterTask is the top-down scatter: for each frontier vertex the worker
// ORs its row into the neighbors in its own stripe of next and queues the
// vertex for the owners of the other stripes its row reaches
// (levelStep.cutAcross). No atomics anywhere on this path — the vet gate
// below proves it stays that way.
//
//bfs:nocas
//bfs:singlewriter only neighbors in the running worker's stripe are written, and its next words have no other writer in the phase
func (e *MSPBFSEngine) scatterTask(workerID int, r sched.Range) {
	g, ov := e.g, e.opt.Overlay
	frontier := e.phFrontier
	scanned := &e.scanned[workerID]
	tgt := e.phCanon
	lo, hi := e.stripes.Range(workerID)
	if e.words == 1 {
		// Fast path for the common 64-BFS configuration: single-word rows
		// indexed straight off the slabs, no per-vertex row slicing.
		fw := frontier.Words()
		//bfs:hot phase 1 frontier scan: runs per vertex per iteration, must not allocate
		for v := r.Lo; v < r.Hi; v++ {
			w := fw[v] //bfs:bounds-ok v < active by task construction; slab is active words at stride 1
			if w == 0 {
				continue
			}
			own := g.Neighbors(v) //bfs:bounds-ok CSR offsets are monotone and n = len(Offsets)-1
			if crosses(own, lo, hi) {
				own = e.cutAcross(workerID, v, own)
			}
			scanned.v += int64(len(own))
			for _, nb := range own {
				tgt[nb] |= w //bfs:bounds-ok neighbor ids < active by ActivePrefix; slab is active words
			}
			if ov != nil {
				// Fused overlay scan: the not-yet-compacted extra neighbors
				// are cut and written the same way.
				own = ov.Extra(v) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				if crosses(own, lo, hi) {
					own = e.cutAcross(workerID, v, own)
				}
				scanned.v += int64(len(own))
				for _, nb := range own {
					tgt[nb] |= w //bfs:bounds-ok overlay endpoints < n by ingest validation, and active = n under an overlay with arcs
				}
			}
		}
		return
	}
	//bfs:hot phase 1 frontier scan (wide rows): runs per vertex per iteration, must not allocate
	for v := r.Lo; v < r.Hi; v++ {
		if !frontier.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			continue
		}
		own := g.Neighbors(v) //bfs:bounds-ok CSR offsets are monotone and n = len(Offsets)-1
		if crosses(own, lo, hi) {
			own = e.cutAcross(workerID, v, own)
		}
		scanned.v += int64(len(own))
		e.spreadRow(v, own)
		if ov != nil {
			own = ov.Extra(v) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
			if crosses(own, lo, hi) {
				own = e.cutAcross(workerID, v, own)
			}
			scanned.v += int64(len(own))
			e.spreadRow(v, own)
		}
	}
}

// spreadRow ORs frontier vertex v's row into the next row of every
// neighbor in seg: the apply's kernel body, and the wide-row scatter's.
//
//bfs:nocas
//bfs:singlewriter seg lies in the stripe of the running worker, the only writer of its next rows in the phase
func (e *MSPBFSEngine) spreadRow(v int, seg []graph.VertexID) {
	tgt := e.phCanon
	row := e.phFrontier.Row(v)
	if len(row) == 1 {
		w := row[0]
		//bfs:hot segment OR (single word): runs per neighbor per top-down level, must not allocate
		for _, nb := range seg {
			tgt[nb] |= w //bfs:bounds-ok neighbor ids < active by ActivePrefix; slab is active words
		}
		return
	}
	stride := len(row)
	//bfs:hot segment OR (wide rows): runs per neighbor per top-down level, must not allocate
	for _, nb := range seg {
		off := int(nb) * stride
		for i := range row {
			tgt[off+i] |= row[i] //bfs:bounds-ok off+stride <= active*stride for nb < active; row sized stride
		}
	}
}

// resolveTask is phase 2: identify newly discovered vertices. Each vertex
// is touched by exactly one worker, so no synchronization; frontier
// entries are cleared in place so the arrays can swap roles without a
// separate memset.
//
//bfs:nocas
//bfs:singlewriter each vertex row is read and written by the one worker that owns its range; live is worker-local scratch
func (e *MSPBFSEngine) resolveTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	frontier, next := e.phFrontier, e.phNext
	levels := e.phLevels
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	//bfs:hot phase 2 resolution sweep: runs per vertex per iteration, must not allocate
	for v := r.Lo; v < r.Hi; v++ {
		if frontier.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			frontier.ZeroVertex(v) //bfs:bounds-ok inlined row zeroing; stride invariant held by State
		}
		if !next.Any(v) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
			continue
		}
		nRow := next.Row(v)   //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
		sRow := e.seen.Row(v) //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
		if len(sRow) < len(nRow) || len(live) < len(nRow) {
			// BCE hint: pins the row strides so the merge loops below
			// compile without per-word bounds checks (bfsgate contract).
			panic("mspbfs: row stride mismatch")
		}
		anyNew := uint64(0)
		for i := range nRow {
			nw := nRow[i] &^ sRow[i]
			if nw != nRow[i] {
				nRow[i] = nw
			}
			sRow[i] |= nw
			anyNew |= nw
		}
		if anyNew == 0 {
			continue
		}
		newBits := 0
		for i := range nRow {
			newBits += onesCount(nRow[i])
			live[i] |= nRow[i]
		}
		upd.v += int64(newBits)
		fv.v++
		d := int64(g.Degree(v)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
		if ov != nil {
			d += int64(ov.ExtraDegree(v)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || e.visit != nil {
			e.emitVisits(workerID, v, nRow, levels)
		}
	}
}

// bottomUpTask scans one destination stripe. For single-word rows it runs
// the branchless Listing-2 inner loop: a 4-wide unrolled OR-accumulate
// over the frontier words of the vertex's neighbors — four independent
// loads in flight, no per-edge branch — with the early exit checked once
// per unrolled group.
//
//bfs:nocas
//bfs:singlewriter each unseen vertex row is read and written by the one worker that owns its range; acc/live are worker-local scratch
func (e *MSPBFSEngine) bottomUpTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	earlyExit := !opt.DisableEarlyExit
	frontier, next, activeMask := e.phFrontier, e.phNext, e.phMask
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	if e.words == 1 {
		e.bottomUpTaskNarrow(workerID, r)
		return
	}
	acc := e.scratch[workerID]
	//bfs:hot bottom-up sweep: runs per vertex per iteration, must not allocate
	for u := r.Lo; u < r.Hi; u++ {
		sRow := e.seen.Row(u) //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
		if coversMask(sRow, activeMask) {
			// Fully seen: just scrub any stale next bits so the buffer
			// swap stays exact (see the buffer-reuse discussion in the
			// package tests).
			if next.Any(u) { //bfs:bounds-ok inlined row indexing; stride invariant held by State
				next.ZeroVertex(u) //bfs:bounds-ok inlined row zeroing; stride invariant held by State
			}
			continue
		}
		for i := range acc {
			acc[i] = 0
		}
		for _, v := range g.Neighbors(u) { //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
			scanned.v++
			fRow := frontier.Row(int(v)) //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
			if len(fRow) < len(acc) {
				// BCE hint: pins the row stride so the merge below
				// compiles without per-word bounds checks (bfsgate).
				panic("mspbfs: row stride mismatch")
			}
			for i := range acc {
				acc[i] |= fRow[i]
			}
			if earlyExit && coversPair(sRow, acc, activeMask) {
				break
			}
		}
		if ov != nil && !(earlyExit && coversPair(sRow, acc, activeMask)) {
			// Fused overlay scan: extra neighbors accumulate into the
			// same acc row, with the same early exit once every live BFS
			// bit is covered.
			for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				fRow := frontier.Row(int(v)) //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
				if len(fRow) < len(acc) {
					// BCE hint: see the CSR loop above.
					panic("mspbfs: row stride mismatch")
				}
				for i := range acc {
					acc[i] |= fRow[i]
				}
				if earlyExit && coversPair(sRow, acc, activeMask) {
					break
				}
			}
		}
		nRow := next.Row(u) //bfs:bounds-ok row slice from the vertex index; State sizes words to active*stride
		if len(sRow) < len(acc) || len(nRow) < len(acc) || len(live) < len(nRow) {
			// BCE hint: pins the row strides so the resolution loops
			// below compile without per-word bounds checks (bfsgate).
			panic("mspbfs: row stride mismatch")
		}
		anyNew := uint64(0)
		for i := range acc {
			nw := acc[i] &^ sRow[i]
			nRow[i] = nw
			sRow[i] |= nw
			anyNew |= nw
		}
		if anyNew == 0 {
			continue
		}
		newBits := 0
		for i := range nRow {
			newBits += onesCount(nRow[i])
			live[i] |= nRow[i]
		}
		upd.v += int64(newBits)
		fv.v++
		d := int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
		if ov != nil {
			d += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || e.visit != nil {
			e.emitVisits(workerID, u, nRow, levels)
		}
	}
}

// bottomUpTaskNarrow is the stride-1 specialization of bottomUpTask: rows
// are single words indexed straight off the slabs, the inner loop is the
// unrolled branchless accumulate described on bottomUpTask, and the early
// exit compares plain words.
//
//bfs:nocas
//bfs:singlewriter each destination word is read and written by the one worker that owns its range
func (e *MSPBFSEngine) bottomUpTaskNarrow(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	earlyExit := !opt.DisableEarlyExit
	fw := e.phFrontier.Words()
	nw := e.phNext.Words()
	sw := e.seen.Words()
	mask := e.phMask[0]
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fv := &e.frontVtx[workerID]
	fd := &e.frontDeg[workerID]
	ud := &e.unseenDeg[workerID]
	live := e.liveBits[workerID]
	//bfs:hot bottom-up sweep (single word): runs per vertex per iteration, must not allocate
	for u := r.Lo; u < r.Hi; u++ {
		seen := sw[u] //bfs:bounds-ok u < active by task construction; slab is active words at stride 1
		need := mask &^ seen
		if need == 0 {
			if nw[u] != 0 { //bfs:bounds-ok u < active by task construction
				nw[u] = 0
			}
			continue
		}
		nbrs := g.Neighbors(u) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
		var acc uint64
		i, ln := 0, len(nbrs)
		if earlyExit {
			for ; i+4 <= ln; i += 4 {
				// Branchless 4-wide OR-accumulate: four independent loads
				// per step, one early-exit test per group instead of per
				// edge.
				acc |= fw[nbrs[i]] | fw[nbrs[i+1]] | fw[nbrs[i+2]] | fw[nbrs[i+3]] //bfs:bounds-ok neighbor ids < active by ActivePrefix
				if acc&need == need {
					i += 4
					break
				}
			}
			if acc&need != need {
				for ; i < ln; i++ {
					acc |= fw[nbrs[i]] //bfs:bounds-ok neighbor ids < active by ActivePrefix
				}
			}
		} else {
			for ; i < ln; i++ {
				acc |= fw[nbrs[i]] //bfs:bounds-ok neighbor ids < active by ActivePrefix
			}
		}
		scanned.v += int64(i)
		if ov != nil && !(earlyExit && acc&need == need) {
			for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				acc |= fw[v] //bfs:bounds-ok overlay endpoints < n by ingest validation, and active = n under an overlay with arcs
				if earlyExit && acc&need == need {
					break
				}
			}
		}
		newBits := acc & need
		nw[u] = newBits //bfs:bounds-ok u < active by task construction
		if newBits == 0 {
			continue
		}
		sw[u] = seen | newBits //bfs:bounds-ok u < active by task construction
		live[0] |= newBits
		upd.v += int64(onesCount(newBits))
		fv.v++
		d := int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
		if ov != nil {
			d += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
		}
		fd.v += d
		ud.v += d
		if levels != nil || e.visit != nil {
			e.emitVisits(workerID, u, nw[u:u+1], levels) //bfs:bounds-ok u < active by task construction; written once per discovered vertex, not per edge
		}
	}
}

// emitVisits records the level of, and reports to the visitor, every
// (source, vertex) pair the newly set bits of vertex v's row stand for.
func (e *MSPBFSEngine) emitVisits(workerID, v int, newRow []uint64, levels [][]int32) {
	for wi, w := range newRow {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + trailingZeros64(w)
			if levels != nil && i < len(levels) {
				levels[i][v] = e.phDepth
			}
			if e.visit != nil {
				e.visit(workerID, e.phBatchOffset+i, v, int(e.phDepth))
			}
		}
	}
}

// coversMask reports whether row covers every bit of mask.
func coversMask(row, mask []uint64) bool {
	if len(row) < len(mask) {
		// BCE hint: rows and masks share the batch stride; pinning the
		// relation here keeps the loop free of per-word bounds checks at
		// every (inlined) call site.
		panic("mspbfs: mask wider than row")
	}
	for i := range mask {
		if mask[i]&^row[i] != 0 {
			return false
		}
	}
	return true
}

// coversPair reports whether (a | b) covers every bit of mask.
func coversPair(a, b, mask []uint64) bool {
	if len(a) < len(mask) || len(b) < len(mask) {
		// BCE hint: see coversMask.
		panic("mspbfs: mask wider than row")
	}
	for i := range mask {
		if mask[i]&^(a[i]|b[i]) != 0 {
			return false
		}
	}
	return true
}
