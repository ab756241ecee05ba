package core

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// StateRepr selects the dense array element type of SMS-PBFS (Section 3.2):
// a bit per vertex maximizes cache efficiency, a byte per vertex reduces
// contention between workers; the trade-off is evaluated in Figures 10-12.
type StateRepr int

const (
	// BitState stores one bit per vertex (512 vertex states per cache
	// line).
	BitState StateRepr = iota
	// ByteState stores one byte per vertex (64 vertex states per cache
	// line).
	ByteState
)

// String returns the paper's label for the representation.
func (r StateRepr) String() string {
	if r == ByteState {
		return "byte"
	}
	return "bit"
}

// algoName is the flight-record kernel label. A constant per variant:
// the recorder evaluates it even when tracing is off, so it must not
// build a string.
func (r StateRepr) algoName() string {
	if r == ByteState {
		return "sms-pbfs/byte"
	}
	return "sms-pbfs/bit"
}

// vertexSet abstracts the two dense state representations so one SMS-PBFS
// implementation serves both variants. All methods mirror the semantics of
// bitset.Bitmap / bitset.ByteMap.
type vertexSet interface {
	Get(v int) bool
	Set(v int)
	Clear(v int)
	ZeroRange(lo, hi int)
	// ChunkWords returns the backing words (each covering ChunkSize
	// vertices) for the zero-chunk skipping scan.
	ChunkWords() []uint64
	// ChunkSize is the number of vertices per backing word.
	ChunkSize() int
	// Mark sets vertex v in a raw word slab laid out like ChunkWords with
	// a plain store; the scatter and the apply use it to write the next
	// words of the running worker's stripe.
	Mark(slab []uint64, v int)
	// Count returns the number of marked vertices (used by the bfsdebug
	// invariant layer).
	Count() int
	MemoryBytes() int64
}

type bitSet struct{ *bitset.Bitmap }

func (b bitSet) ChunkWords() []uint64 { return b.Words() }
func (b bitSet) ChunkSize() int       { return 64 }

// Mark sets v's bit in slab with a plain store.
//
//bfs:singlewriter called only from the scatter and spreadMarks, whose targets lie in the running worker's own stripe
func (b bitSet) Mark(slab []uint64, v int) {
	slab[v>>6] |= 1 << (uint(v) & 63) //bfs:bounds-ok v < active by ActivePrefix; slab spans active bits like the canonical bitmap
}

type byteSet struct{ *bitset.ByteMap }

func (b byteSet) ChunkWords() []uint64 { return b.Words() }
func (b byteSet) ChunkSize() int       { return 8 }

// Mark sets v's byte in slab with a plain store.
//
//bfs:singlewriter called only from the scatter and spreadMarks, whose targets lie in the running worker's own stripe
func (b byteSet) Mark(slab []uint64, v int) {
	slab[v>>3] |= uint64(1) << (uint(v&7) * 8) //bfs:bounds-ok v < active by ActivePrefix; slab spans active bytes like the canonical byte map
}

func newVertexSet(n int, repr StateRepr) vertexSet {
	if repr == ByteState {
		return byteSet{bitset.NewByteMap(n)}
	}
	return bitSet{bitset.NewBitmap(n)}
}

// SMSPBFS runs the parallel single-source BFS of Section 3.2 with the given
// state representation. The algorithm follows Listings 3 (top-down) and 4
// (bottom-up): boolean per-vertex state, worker-owned stripes of next in
// the first top-down phase, and zero synchronization elsewhere. The
// 64-vertex (bit) / 8-vertex (byte) chunk skipping avoids per-vertex checks
// over inactive ranges.
func SMSPBFS(g *graph.Graph, source int, repr StateRepr, opt Options) *Result {
	e := NewSMSPBFSEngine(g, repr, opt)
	defer e.Close()
	return e.Run(source)
}

// SMSPBFSEngine holds reusable SMS-PBFS state so many single-source runs
// can share allocations and the worker pool (SMS-PBFS processes a workload
// "one single source at a time, utilizing all cores", Section 5.3). It is
// the k = 1 configuration of the level-step substrate MSPBFSEngine also
// embeds: boolean sets in place of k-word rows, everything else shared.
type SMSPBFSEngine struct {
	levelStep
	repr StateRepr

	seen vertexSet
	buf0 vertexSet // frontier/next double buffer
	buf1 vertexSet

	// Per-iteration phase state (written between barriers only).
	phFrontier vertexSet
	phNext     vertexSet
	phLevels   []int32

	// dbgSeen threads the seen population through the bfsdebug
	// per-iteration checks (unused otherwise).
	dbgSeen int64
}

// NewSMSPBFSEngine prepares an instance; Close hands the pool and the
// state arrays back to the engine's arena.
func NewSMSPBFSEngine(g *graph.Graph, repr StateRepr, opt Options) *SMSPBFSEngine {
	run, warm := beginShell(g, opt, shellKey{repr: repr})
	var e *SMSPBFSEngine
	if warm != nil {
		e = warm.self.(*SMSPBFSEngine)
	} else {
		active := run.key.active
		e = &SMSPBFSEngine{
			repr: repr,
			seen: newVertexSet(active, repr),
			buf0: newVertexSet(active, repr),
			buf1: newVertexSet(active, repr),
		}
		e.init(e, run.key)
		e.stateBytes = e.seen.MemoryBytes() + e.buf0.MemoryBytes() + e.buf1.MemoryBytes()
		e.spread = e.spreadMarks
		e.scatterBody = e.scatterTask
		e.resolveBody = e.resolveTask
		e.bottomUpBody = e.bottomUpTask
		e.zeroBody = func(_ int, r sched.Range) {
			e.seen.ZeroRange(r.Lo, r.Hi)
			e.buf0.ZeroRange(r.Lo, r.Hi)
			e.buf1.ZeroRange(r.Lo, r.Hi)
		}
		e.endLevel = e.finishLevel
	}
	e.open(run)
	if debugInvariants {
		debugCheckBorrowedClean("SMS-PBFS shell",
			e.seen.Count()+e.buf0.Count()+e.buf1.Count())
	}
	return e
}

// Run executes one single-source BFS. The engine's state arrays are reset
// at the start, so Run can be called repeatedly.
func (e *SMSPBFSEngine) Run(source int) *Result {
	g, opt, n := e.g, e.opt, e.g.NumVertices()
	ov := opt.Overlay
	var levels []int32
	if opt.RecordLevels {
		levels = e.eng.borrowLevels(n) //bfs:arena-held row rides in the returned Result; the caller frees it with Engine.ReleaseLevels
	}

	start := time.Now()
	e.scrub()
	// Opened after the scrub, so its tasks are not charged to the first level.
	rec := newIterRecorder(opt, e.repr.algoName(), 1, e.pool)

	e.bindBuffers(e.buf0, e.buf1)
	e.phLevels = levels
	e.dbgSeen = 0
	if source < e.active {
		// A source past the active prefix has no arc: it is the run's one
		// frontier vertex, of degree 0, and needs no state.
		e.seen.Set(source)
		e.phFrontier.Set(source)
		e.dbgSeen = 1
	}
	if levels != nil {
		levels[source] = 0
	}
	if opt.OnVisit != nil {
		opt.OnVisit(0, 0, source, 0)
	}

	frontEdges := int64(g.Degree(source))
	if ov != nil {
		frontEdges += int64(ov.ExtraDegree(source))
	}
	e.begin(rec, 1, 1, frontEdges)
	e.traverse()

	if debugInvariants && levels != nil && opt.MaxDepth <= 0 {
		debugCheckLevels(g, ov, source, levels, "SMS-PBFS")
	}

	e.rec.finish()
	res := &Result{Levels: levels, VisitedVertices: e.visited}
	res.Stats = metrics.RunStat{Elapsed: time.Since(start), Sources: 1, Iterations: e.rec.stats}
	return res
}

// bindBuffers points the coming level at its frontier and next buffers.
func (e *SMSPBFSEngine) bindBuffers(frontier, next vertexSet) {
	e.phFrontier, e.phNext, e.phCanon = frontier, next, next.ChunkWords()
}

// finishLevel is the between-levels hook: fold the level's counters into
// the direction inputs and swap the frontier buffers. At k = 1 every newly
// set state is a frontier vertex and every frontier edge leaves the
// unexplored pool, so updated and frontDeg each stand in twice. The
// top-down scatter cleared the old frontier in place (Listing 3 line 5);
// the bottom-up sweep scrubs stale next bits as it goes (Listing 4).
func (e *SMSPBFSEngine) finishLevel() {
	e.dir.applyIteration(e.updated, e.frontDeg, e.frontDeg)
	if debugInvariants {
		e.dbgSeen = debugCheckSetIteration(e.seen, e.phNext, e.active, e.dbgSeen, sumCounters(e.updated), "SMS-PBFS", e.phDepth)
	}
	e.bindBuffers(e.phNext, e.phFrontier)
}

// scatterTask is phase 1 of Listing 3: scan the frontier chunk words, mark
// each neighbor in the worker's own stripe of next and queue the vertex for
// the owners of the other stripes its row reaches (levelStep.cutAcross), and
// clear the frontier in place. Plain stores only — no atomics on this path.
//
//bfs:nocas
//bfs:singlewriter only neighbors in the running worker's stripe are marked; frontier words are cleared by the task that owns them
func (e *SMSPBFSEngine) scatterTask(workerID int, r sched.Range) {
	g, ov := e.g, e.opt.Overlay
	frontier := e.phFrontier
	active := e.active
	scanned := &e.scanned[workerID]
	tgt := e.phCanon
	lo, hi := e.stripes.Range(workerID)
	chunk := frontier.ChunkSize()
	words := frontier.ChunkWords()
	loW, hiW := r.Lo/chunk, (r.Hi+chunk-1)/chunk
	if loW < 0 || hiW > len(words) {
		// BCE hint: task ranges lie inside [0, n), so the chunk-word
		// window is in bounds; pinning it here keeps the scan loop free
		// of per-chunk bounds checks (bfsgate contract).
		panic("smspbfs: task range outside chunk words")
	}
	//bfs:hot phase 1 chunk scan: runs per chunk per iteration, must not allocate
	for wi := loW; wi < hiW; wi++ {
		if words[wi] == 0 {
			continue // chunk skip: no active vertex among these
		}
		base := wi * chunk
		limit := base + chunk
		if limit > active {
			limit = active
		}
		for v := base; v < limit; v++ {
			if !frontier.Get(v) {
				continue
			}
			own := g.Neighbors(v) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			if crosses(own, lo, hi) {
				own = e.cutAcross(workerID, v, own)
			}
			scanned.v += int64(len(own))
			for _, nb := range own {
				frontier.Mark(tgt, int(nb))
			}
			if ov != nil {
				// Fused overlay scan: extra neighbors are cut and marked
				// the same way.
				own = ov.Extra(v) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				if crosses(own, lo, hi) {
					own = e.cutAcross(workerID, v, own)
				}
				scanned.v += int64(len(own))
				for _, nb := range own {
					frontier.Mark(tgt, int(nb))
				}
			}
		}
		// Frontier cleared in place (Listing 3 line 5). Task ranges are
		// multiples of 512 vertices, so word wi belongs to exactly one
		// task and only the worker holding that task writes it. The apply
		// needs only the queued ids, not the frontier.
		words[wi] = 0 //bfs:singlewriter word-aligned task ranges: one writer per word
	}
}

// spreadMarks marks every neighbor in seg in next: the apply's kernel
// body. Stripe borders are multiples of 512 vertices, so no next word
// straddles two stripe owners.
//
//bfs:nocas
func (e *SMSPBFSEngine) spreadMarks(_ int, seg []graph.VertexID) {
	next, tgt := e.phNext, e.phCanon
	//bfs:hot segment marks: runs per neighbor per top-down level, must not allocate
	for _, nb := range seg {
		next.Mark(tgt, int(nb))
	}
}

// resolveTask is phase 2: resolve newly seen vertices without
// synchronization (Listing 3 lines 6-11).
//
//bfs:nocas
func (e *SMSPBFSEngine) resolveTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	next := e.phNext
	levels := e.phLevels
	active := e.active
	chunk := next.ChunkSize()
	upd := &e.updated[workerID]
	fd := &e.frontDeg[workerID]
	words := next.ChunkWords()
	loW, hiW := r.Lo/chunk, (r.Hi+chunk-1)/chunk
	if loW < 0 || hiW > len(words) {
		// BCE hint: see the phase 1 chunk-window guard.
		panic("smspbfs: task range outside chunk words")
	}
	//bfs:hot phase 2 chunk scan: runs per chunk per iteration, must not allocate
	for wi := loW; wi < hiW; wi++ {
		if words[wi] == 0 {
			continue
		}
		base := wi * chunk
		limit := base + chunk
		if limit > active {
			limit = active
		}
		for v := base; v < limit; v++ {
			if !next.Get(v) {
				continue
			}
			if e.seen.Get(v) {
				next.Clear(v) // reachable but already seen: drop
				continue
			}
			e.seen.Set(v)
			upd.v++
			fd.v += int64(g.Degree(v)) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			if ov != nil {
				fd.v += int64(ov.ExtraDegree(v)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
			}
			if levels != nil {
				levels[v] = e.phDepth //bfs:bounds-ok levels is engine-sized to n; written once per discovered vertex, not per edge
			}
			if opt.OnVisit != nil {
				opt.OnVisit(workerID, 0, v, int(e.phDepth))
			}
		}
	}
}

// bottomUpTask implements Listing 4 over one destination range: unseen
// vertices scan their neighbor lists for a frontier member; stale next bits
// of seen vertices are scrubbed in the same pass so the buffers can swap
// roles.
//
//bfs:nocas
func (e *SMSPBFSEngine) bottomUpTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	frontier, next := e.phFrontier, e.phNext
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fd := &e.frontDeg[workerID]
	//bfs:hot bottom-up sweep: runs per vertex per iteration, must not allocate
	for u := r.Lo; u < r.Hi; u++ {
		if e.seen.Get(u) {
			if next.Get(u) {
				next.Clear(u) // Listing 4 lines 2-3
			}
			continue
		}
		found := false
		for _, v := range g.Neighbors(u) { //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			scanned.v++
			if frontier.Get(int(v)) {
				found = true
				break
			}
		}
		if !found && ov != nil {
			// Fused overlay scan: the extra neighbors get the same
			// find-one-frontier-parent early exit as the CSR list.
			for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v++
				if frontier.Get(int(v)) {
					found = true
					break
				}
			}
		}
		if found {
			next.Set(u)
			e.seen.Set(u)
			upd.v++
			fd.v += int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			if ov != nil {
				fd.v += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
			}
			if levels != nil {
				levels[u] = e.phDepth //bfs:bounds-ok levels is engine-sized to n; written once per discovered vertex, not per edge
			}
			if opt.OnVisit != nil {
				opt.OnVisit(workerID, 0, u, int(e.phDepth))
			}
		} else if next.Get(u) {
			next.Clear(u) // scrub stale bit from two iterations ago
		}
	}
}
