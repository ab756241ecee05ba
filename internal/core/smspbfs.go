package core

import (
	"time"

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

// stateSet is SMS-PBFS's dense boolean state in either representation of
// Section 3.2: a bit per vertex (shift 6, 64 vertices to a word) or a byte
// per vertex (shift 3, 8 vertices to a word). Vertex v lives in word
// v>>shift at bit (v<<lg)&63, where lg is log2 of the slot width in bits
// (0 or 3). Only a slot's lowest bit is ever set, so a word's set bits are
// exactly its marked vertices and both representations share every
// word-at-a-time step: the chunk skip, the resolve's next &^ seen and the
// bottom-up's seen |= found.
type stateSet struct {
	words     []uint64
	shift, lg uint
}

func newStateSet(n int, repr StateRepr) stateSet {
	s := stateSet{shift: 6}
	if repr == ByteState {
		s.shift, s.lg = 3, 3
	}
	s.words = make([]uint64, (n+s.slots()-1)>>s.shift)
	return s
}

// slots is the number of vertices per word.
func (s *stateSet) slots() int { return 1 << s.shift }

// lowBits has the lowest bit of every slot set: a word equal to it has all
// its vertices marked.
func (s *stateSet) lowBits() uint64 {
	if s.lg == 0 {
		return ^uint64(0)
	}
	return 0x0101010101010101
}

// Get reports whether vertex v is marked.
func (s *stateSet) Get(v int) bool {
	return s.words[v>>s.shift]&(1<<(uint(v)<<s.lg&63)) != 0
}

// Set marks vertex v; Run seeds the source with it, before the first level.
func (s *stateSet) Set(v int) { s.Mark(s.words, v) }

// Mark sets vertex v in slab, a word slab laid out like s, with a plain
// store: the scatter and the apply write the next words of the running
// worker's stripe through it.
//
//bfs:singlewriter the scatter and spreadMarks mark only the running worker's own stripe; Set runs before any worker starts
func (s *stateSet) Mark(slab []uint64, v int) {
	slab[v>>s.shift] |= 1 << (uint(v) << s.lg & 63) //bfs:bounds-ok v < active by ActivePrefix; slab spans the active slots like s
}

// ZeroRange clears the slots of vertices [lo, hi), whole slots, so a word
// shared with vertices outside the range keeps theirs.
//
//bfs:singlewriter the zero pass runs over word-aligned task ranges: one writer per word
func (s *stateSet) ZeroRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>s.shift, (hi-1)>>s.shift
	head := ^uint64(0) << (uint(lo) << s.lg & 63)
	tail := ^uint64(0) >> (63 - (uint(hi-1)<<s.lg&63 + 1<<s.lg - 1))
	if first == last {
		s.words[first] &^= head & tail
		return
	}
	s.words[first] &^= head
	clear(s.words[first+1 : last])
	s.words[last] &^= tail
}

// Count returns the number of marked vertices.
func (s *stateSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += onesCount(w)
	}
	return c
}

// MemoryBytes returns the size in bytes of the backing words.
func (s *stateSet) MemoryBytes() int64 { return int64(len(s.words)) * 8 }

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

	seen stateSet
	buf0 stateSet // frontier/next double buffer
	buf1 stateSet

	// Per-iteration phase state (written between barriers only).
	phFrontier *stateSet
	phNext     *stateSet
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
			seen: newStateSet(active, repr),
			buf0: newStateSet(active, repr),
			buf1: newStateSet(active, repr),
		}
		e.init(e, run.key)
		e.stateBytes = e.seen.MemoryBytes() + e.buf0.MemoryBytes() + e.buf1.MemoryBytes()
		e.spread = e.spreadMarks
		e.scatterBody = e.scatterTask
		e.resolveBody = e.resolveTask
		e.bottomUpBody = e.bottomUpTask
		e.zeroBody = func(_ int, r sched.Range) {
			// The last task also owns the slack slots of its last word,
			// past the active prefix: clearing them keeps "no slot past
			// the prefix is set" true whatever a previous owner left.
			hi := (r.Hi + e.seen.slots() - 1) &^ (e.seen.slots() - 1)
			e.seen.ZeroRange(r.Lo, hi)
			e.buf0.ZeroRange(r.Lo, hi)
			e.buf1.ZeroRange(r.Lo, hi)
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
		levels = newLevelRows(n, 1)[0]
	}

	start := time.Now()
	e.scrub()
	// Opened after the scrub, so its tasks are not charged to the first level.
	rec := newIterRecorder(opt, e.repr.algoName(), 1, e.pool)

	e.bindBuffers(&e.buf0, &e.buf1)
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
func (e *SMSPBFSEngine) bindBuffers(frontier, next *stateSet) {
	e.phFrontier, e.phNext, e.phCanon = frontier, next, next.words
}

// finishLevel is the between-levels hook: fold the level's counters into
// the direction inputs and swap the frontier buffers. At k = 1 every newly
// set state is a frontier vertex and every frontier edge leaves the
// unexplored pool, so updated and frontDeg each stand in twice. The
// top-down scatter cleared the old frontier in place (Listing 3 line 5);
// the bottom-up sweep overwrites every next word it passes (Listing 4).
func (e *SMSPBFSEngine) finishLevel() {
	e.dir.applyIteration(e.updated, e.frontDeg, e.frontDeg)
	if debugInvariants {
		e.dbgSeen = debugCheckSetIteration(&e.seen, e.phNext, e.dbgSeen, sumCounters(e.updated), "SMS-PBFS", e.phDepth)
	}
	e.bindBuffers(e.phNext, e.phFrontier)
}

// wordWindow returns the words of s that task range r covers. Task ranges
// start on 512-vertex borders, so each of these words belongs to r alone;
// only the last task, clipped at the active prefix, may end inside its
// last word, and that word's slots past the prefix are never set.
func (s *stateSet) wordWindow(r sched.Range) (lo, hi int) {
	lo, hi = r.Lo>>s.shift, (r.Hi+s.slots()-1)>>s.shift
	if lo < 0 || hi > len(s.words) {
		// BCE hint: task ranges lie inside [0, active), so the word
		// window is in bounds; pinning it here keeps the sweeps free of
		// per-word bounds checks (bfsgate contract).
		panic("smspbfs: task range outside the state words")
	}
	return lo, hi
}

// scatterTask is phase 1 of Listing 3: walk the frontier's set bits, mark
// each neighbor in the worker's own stripe of next and queue the vertex for
// the owners of the other stripes its row reaches (levelStep.cutAcross), and
// clear the frontier in place. Plain stores only — no atomics on this path.
//
//bfs:nocas
//bfs:singlewriter only neighbors in the running worker's stripe are marked; frontier words are cleared by the task that owns them
func (e *SMSPBFSEngine) scatterTask(workerID int, r sched.Range) {
	g, ov := e.g, e.opt.Overlay
	frontier, next := e.phFrontier, e.phNext
	scanned := &e.scanned[workerID]
	tgt := e.phCanon
	lo, hi := e.stripes.Range(workerID)
	shift, lg := frontier.shift, frontier.lg
	words := frontier.words
	loW, hiW := frontier.wordWindow(r)
	//bfs:hot phase 1 chunk scan: runs per chunk per iteration, must not allocate
	for wi := loW; wi < hiW; wi++ {
		w := words[wi] //bfs:bounds-ok wordWindow pins [loW, hiW) inside words
		if w == 0 {
			continue // chunk skip: no active vertex among these
		}
		for ; w != 0; w &= w - 1 {
			v := wi<<shift + trailingZeros64(w)>>lg
			own := g.Neighbors(v) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
			if crosses(own, lo, hi) {
				own = e.cutAcross(workerID, v, own)
			}
			scanned.v += int64(len(own))
			for _, nb := range own {
				next.Mark(tgt, int(nb)) //bfs:bounds-ok inlined slab indexing; nb < active by ActivePrefix and the slab spans the active slots
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
					next.Mark(tgt, int(nb)) //bfs:bounds-ok inlined slab indexing; nb < active by ActivePrefix and the slab spans the active slots
				}
			}
		}
		// Frontier cleared in place (Listing 3 line 5). Word wi belongs to
		// exactly one task (wordWindow), and only the worker holding that
		// task writes it. The apply needs only the queued ids, not the
		// frontier.
		words[wi] = 0 //bfs:bounds-ok wordWindow pins [loW, hiW) inside words
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
		next.Mark(tgt, int(nb)) //bfs:bounds-ok inlined slab indexing; nb < active by ActivePrefix and the slab spans the active slots
	}
}

// resolveTask is phase 2 (Listing 3 lines 6-11), a word at a time: the
// fresh vertices of a word are next &^ seen; seen takes them and next
// keeps only them, which drops the reached-but-seen ones (and any stale bit
// of two levels ago) in the same store. Only the fresh bits are walked, for
// the counters and the levels. No synchronization: the word window
// belongs to this task alone.
//
//bfs:nocas
//bfs:singlewriter word-aligned task ranges: one writer per seen and next word
func (e *SMSPBFSEngine) resolveTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	seen, next := &e.seen, e.phNext
	levels := e.phLevels
	upd := &e.updated[workerID]
	fd := &e.frontDeg[workerID]
	shift, lg := seen.shift, seen.lg
	seenW, nextW := seen.words, next.words
	loW, hiW := seen.wordWindow(r)
	if hiW > len(nextW) {
		panic("smspbfs: next is shorter than seen") // BCE hint: the buffers share one layout
	}
	//bfs:hot phase 2 chunk scan: runs per chunk per iteration, must not allocate
	for wi := loW; wi < hiW; wi++ {
		nw := nextW[wi] //bfs:bounds-ok wordWindow and the guard above pin [loW, hiW) inside both buffers
		if nw == 0 {
			continue
		}
		fresh := nw &^ seenW[wi] //bfs:bounds-ok wordWindow pins [loW, hiW) inside seen
		seenW[wi] |= fresh       //bfs:bounds-ok wordWindow pins [loW, hiW) inside seen
		nextW[wi] = fresh        //bfs:bounds-ok wordWindow and the guard above pin [loW, hiW) inside both buffers
		for ; fresh != 0; fresh &= fresh - 1 {
			v := wi<<shift + trailingZeros64(fresh)>>lg
			upd.v++
			fd.v += int64(g.Degree(v)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
			if ov != nil {
				fd.v += int64(ov.ExtraDegree(v)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
			}
			if levels != nil {
				levels[v] = e.phDepth //bfs:bounds-ok levels is engine-sized to n; written once per discovered vertex, not per edge
			}
		}
	}
}

// bottomUpTask implements Listing 4 over one destination range, a word at
// a time: each seen word is read once and a full one skipped; every unseen
// vertex of the rest scans its neighbor lists for a frontier member. The
// word's finds go out in two stores, seen |= found and next = found; the
// second also scrubs the stale next bits of two levels ago (Listing 4
// lines 2-3), so the buffers can swap roles.
//
//bfs:nocas
//bfs:singlewriter word-aligned task ranges: one writer per seen and next word
func (e *SMSPBFSEngine) bottomUpTask(workerID int, r sched.Range) {
	g, opt := e.g, e.opt
	ov := opt.Overlay
	seen, frontier, next := &e.seen, e.phFrontier, e.phNext
	levels := e.phLevels
	scanned := &e.scanned[workerID]
	upd := &e.updated[workerID]
	fd := &e.frontDeg[workerID]
	shift, lg, all := seen.shift, seen.lg, seen.lowBits()
	seenW, nextW := seen.words, next.words
	loW, hiW := seen.wordWindow(r)
	if hiW > len(nextW) {
		panic("smspbfs: next is shorter than seen") // BCE hint: the buffers share one layout
	}
	//bfs:hot bottom-up sweep: runs per chunk per iteration, must not allocate
	for wi := loW; wi < hiW; wi++ {
		sw := seenW[wi] //bfs:bounds-ok wordWindow pins [loW, hiW) inside seen
		var found uint64
		// A full word leaves nothing unseen: chunk skip.
		for unseen := all &^ sw; unseen != 0; unseen &= unseen - 1 {
			bit := trailingZeros64(unseen)
			u := wi<<shift + bit>>lg
			if u >= r.Hi {
				break // the slack slots of the last word, past the active prefix
			}
			hit := false
			for _, v := range g.Neighbors(u) { //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
				scanned.v++
				if frontier.Get(int(v)) { //bfs:bounds-ok inlined word indexing; v < active by ActivePrefix
					hit = true
					break
				}
			}
			if !hit && ov != nil {
				// Fused overlay scan: the extra neighbors get the same
				// find-one-frontier-parent early exit as the CSR list.
				for _, v := range ov.Extra(u) { //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
					scanned.v++
					if frontier.Get(int(v)) { //bfs:bounds-ok inlined word indexing; an overlay spans the whole state (activePrefix)
						hit = true
						break
					}
				}
			}
			if !hit {
				continue
			}
			found |= 1 << uint(bit)
			upd.v++
			fd.v += int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
			if ov != nil {
				fd.v += int64(ov.ExtraDegree(u)) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
			}
			if levels != nil {
				levels[u] = e.phDepth //bfs:bounds-ok levels is engine-sized to n; written once per discovered vertex, not per edge
			}
		}
		if found != 0 {
			seenW[wi] = sw | found //bfs:bounds-ok wordWindow pins [loW, hiW) inside seen
		}
		nextW[wi] = found //bfs:bounds-ok wordWindow and the guard above pin [loW, hiW) inside both buffers
	}
}
