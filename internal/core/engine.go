package core

import (
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/sched"
)

// Engine is the long-lived execution substrate for every traversal in this
// package: persistent sched.Pool worker sets plus a size-keyed arena that
// recycles the per-run artifacts the kernels otherwise rebuild on every
// call — k-wide bitset.State triples, the bitmaps SMS-PBFS/Beamer/queue-BFS
// scan, per-worker padded counters and scratch/liveBits words (recycled as
// whole MS/SMS engine shells), and []int32 level rows.
//
// The contract is strict hygiene, not trust: every artifact is scrubbed on
// the borrow path (states and bitmaps are zeroed, level rows are filled
// with NoLevel), so a recycled state can never leak a
// previous query's visited bits even if a caller poisons what it returns.
// The bfsdebug build re-verifies this with a "borrowed state is clean"
// invariant check.
//
// An Engine is safe for concurrent use. Pools are checked out exclusively
// (a sched.Pool's busy accounting is not safe under concurrent runs), so M
// concurrent traversals on one engine use M pooled worker sets. Free lists
// are bounded; overflow is simply dropped for the GC (or Closed, for
// pools).
//
// Close releases every pooled resource. Borrowing from a closed engine
// still works — it degrades to plain allocation, exactly the pre-engine
// behavior — so Close is a resource release, not a use-after-free hazard.
type Engine struct {
	mu     sync.Mutex
	closed bool

	pools   freeList[int, *sched.Pool]     // keyed by worker count
	shells  freeList[shellKey, *levelStep] // warm MS-/SMS-PBFS shells (counters+scratch+states)
	states  freeList[stateKey, *bitset.State]
	bitmaps freeList[int, *bitset.Bitmap] // keyed by vertex count
	levels  freeList[int, []int32]        // keyed by row length

	freeBytes int64 // bytes parked in the arena free lists (pools excluded)
	borrowed  int64 // artifacts currently checked out
	hits      uint64
	misses    uint64
}

type stateKey struct {
	n     int
	words int
}

// Per-key free-list bounds. Pools and kernel shells are heavyweight (a
// shell pins 3 k-wide states plus per-worker scratch), so a handful covers
// the realistic concurrency per shape; level rows are small and requested
// in bursts of up to SourcesPerBatch per batch, so they get a deeper list.
const (
	maxFreePools  = 4
	maxFreeShells = 4
	maxFreeStates = 8
	maxFreeMaps   = 12
	maxFreeLevels = 1024
)

// freeList is one keyed, bounded free list of the engine's arena. It owns
// the accounting every artifact kind shares — hit/miss, the checkout
// count and the parked bytes — so the borrow/return pairs below differ
// only in key, bound, byte size and scrub. Every method requires e.mu.
type freeList[K comparable, T any] struct {
	free  map[K][]T
	max   int           // per-key bound; overflow is dropped for the GC
	bytes func(T) int64 // arena bytes one parked artifact holds
}

func newFreeList[K comparable, T any](max int, bytes func(T) int64) freeList[K, T] {
	return freeList[K, T]{free: make(map[K][]T), max: max, bytes: bytes}
}

// pop starts one checkout: the most recently parked artifact for key that
// fits accepts (nil accepts any), or ok=false on a cold miss (the caller
// then allocates fresh).
func (f *freeList[K, T]) pop(e *Engine, key K, fits func(T) bool) (v T, ok bool) {
	e.borrowed++
	l := f.free[key]
	i := len(l) - 1
	for fits != nil && i >= 0 && !fits(l[i]) {
		i--
	}
	if i < 0 {
		e.misses++
		return v, false
	}
	v = l[i]
	f.free[key] = slices.Delete(l, i, i+1) // also drops the list's reference to v
	e.hits++
	e.freeBytes -= f.bytes(v)
	return v, true
}

// push ends one checkout and parks v under key, unless the engine is
// closed or the key's list is full; it reports whether v was parked.
func (f *freeList[K, T]) push(e *Engine, key K, v T) bool {
	e.borrowed--
	l := f.free[key]
	if e.closed || len(l) >= f.max {
		return false
	}
	f.free[key] = append(l, v)
	e.freeBytes += f.bytes(v)
	return true
}

// drop hands the artifacts parked under key that stale reports to the GC.
func (f *freeList[K, T]) drop(e *Engine, key K, stale func(T) bool) {
	l := f.free[key]
	kept := l[:0]
	for _, v := range l {
		if stale(v) {
			e.freeBytes -= f.bytes(v)
		} else {
			kept = append(kept, v)
		}
	}
	clear(l[len(kept):])
	f.free[key] = kept
}

// parked counts the artifacts on the list over all keys.
func (f *freeList[K, T]) parked() int {
	n := 0
	for _, l := range f.free {
		n += len(l)
	}
	return n
}

// drain empties the list and returns what it held.
func (f *freeList[K, T]) drain() map[K][]T {
	old := f.free
	f.free = make(map[K][]T)
	return old
}

// NewEngine returns an empty engine; pools and arena entries are created
// on first miss and recycled after that. Prewarm forces the pool spawn
// ahead of the first query.
func NewEngine() *Engine {
	return &Engine{
		pools:   newFreeList[int](maxFreePools, func(*sched.Pool) int64 { return 0 }),
		shells:  newFreeList[shellKey](maxFreeShells, (*levelStep).memoryBytes),
		states:  newFreeList[stateKey](maxFreeStates, (*bitset.State).MemoryBytes),
		bitmaps: newFreeList[int](maxFreeMaps, (*bitset.Bitmap).MemoryBytes),
		levels:  newFreeList[int](maxFreeLevels, func(row []int32) int64 { return int64(len(row)) * 4 }),
	}
}

// defaultEngine backs every call that does not wire an explicit engine, so
// the package-level free functions (MSPBFS, SMSPBFS, Beamer, ...) are churn
// free in steady state by default.
var (
	defaultEngine     *Engine
	defaultEngineOnce sync.Once
)

// DefaultEngine returns the shared package-default engine used whenever
// Options.Engine is nil. It is never closed.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = NewEngine() })
	return defaultEngine
}

// EngineStats is a point-in-time snapshot of an engine's pool and arena
// occupancy, exported on the server's /metrics endpoint.
type EngineStats struct {
	// FreePools / PooledWorkers count idle worker pools and the worker
	// goroutines they keep parked.
	FreePools     int
	PooledWorkers int
	// FreeShells / FreeStates / FreeBitmaps / FreeLevelRows count idle
	// arena artifacts by kind (a shell bundles one kernel's whole state).
	FreeShells    int
	FreeStates    int
	FreeBitmaps   int
	FreeLevelRows int
	// FreeBytes is the memory parked in the arena free lists.
	FreeBytes int64
	// Borrowed counts artifacts currently checked out.
	Borrowed int64
	// Hits / Misses count borrow requests served from the arena vs by
	// fresh allocation, over the engine's lifetime.
	Hits   uint64
	Misses uint64
}

// Stats snapshots the engine's occupancy counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineStats{
		FreePools:     e.pools.parked(),
		FreeShells:    e.shells.parked(),
		FreeStates:    e.states.parked(),
		FreeBitmaps:   e.bitmaps.parked(),
		FreeLevelRows: e.levels.parked(),
		FreeBytes:     e.freeBytes,
		Borrowed:      e.borrowed,
		Hits:          e.hits,
		Misses:        e.misses,
	}
	for workers, l := range e.pools.free {
		st.PooledWorkers += workers * len(l)
	}
	return st
}

// arenaCounters reads just the lifetime hit/miss counters; the tracing
// layer snapshots them at traversal start and finish to attribute arena
// behavior per traversal without paying for a full Stats walk.
func (e *Engine) arenaCounters() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// Close shuts down every pooled worker set and drops the arena. The engine
// stays usable — subsequent borrows allocate fresh and returns are dropped
// — so callers racing a Close degrade gracefully instead of crashing.
func (e *Engine) Close() {
	e.mu.Lock()
	pools := e.pools.drain()
	e.shells.drain()
	e.states.drain()
	e.bitmaps.drain()
	e.levels.drain()
	e.freeBytes = 0
	e.closed = true
	e.mu.Unlock()
	for _, l := range pools {
		for _, p := range l {
			p.Close()
		}
	}
}

// Prewarm spawns (or verifies) one pooled worker set of the given width so
// the first query does not pay the goroutine spawn.
func (e *Engine) Prewarm(workers int) {
	p := e.borrowPool(workers)
	e.returnPool(p)
}

// BorrowPool checks out a worker pool of the given width for exclusive
// use and returns it with a release func. Release is idempotent. This is
// the engine-routed replacement for an ad-hoc sched.NewPool call site: the
// Graph500 harness derives its parent trees on one.
func (e *Engine) BorrowPool(workers int) (*sched.Pool, func()) {
	if workers < 1 {
		workers = 1
	}
	p := e.borrowPool(workers) //bfs:arena-held ownership transfers to the caller together with the paired release closure below
	var once sync.Once
	return p, func() { once.Do(func() { e.returnPool(p) }) }
}

func (e *Engine) borrowPool(workers int) *sched.Pool {
	e.mu.Lock()
	p, ok := e.pools.pop(e, workers, nil)
	e.mu.Unlock()
	if !ok {
		// Spawning workers outside the lock keeps a cold miss from
		// stalling concurrent borrowers.
		return sched.NewPool(workers)
	}
	return p
}

func (e *Engine) returnPool(p *sched.Pool) {
	if p == nil {
		return
	}
	e.mu.Lock()
	parked := e.pools.push(e, p.Workers(), p)
	e.mu.Unlock()
	if !parked {
		p.Close()
	}
}

// borrowState checks out an n-vertex, words-wide State, scrubbed to all
// zeros regardless of the condition it was returned in.
func (e *Engine) borrowState(n, words int) *bitset.State {
	e.mu.Lock()
	s, ok := e.states.pop(e, stateKey{n: n, words: words}, nil)
	e.mu.Unlock()
	if !ok {
		return bitset.NewState(n, words)
	}
	s.ZeroRange(0, n) // scrub: a recycled state never leaks visited bits
	if debugInvariants {
		debugCheckBorrowedClean("State", s.CountAll())
	}
	return s
}

func (e *Engine) returnState(s *bitset.State) {
	if s == nil {
		return
	}
	e.mu.Lock()
	e.states.push(e, stateKey{n: s.Len(), words: s.Stride()}, s)
	e.mu.Unlock()
}

// borrowBitmap checks out an n-vertex bitmap, scrubbed to all zeros.
func (e *Engine) borrowBitmap(n int) *bitset.Bitmap {
	e.mu.Lock()
	b, ok := e.bitmaps.pop(e, n, nil)
	e.mu.Unlock()
	if !ok {
		return bitset.NewBitmap(n)
	}
	b.ZeroRange(0, n)
	if debugInvariants {
		debugCheckBorrowedClean("Bitmap", b.Count())
	}
	return b
}

func (e *Engine) returnBitmap(b *bitset.Bitmap) {
	if b == nil {
		return
	}
	e.mu.Lock()
	e.bitmaps.push(e, b.Len(), b)
	e.mu.Unlock()
}

// borrowLevels checks out one n-long level row, filled with NoLevel
// whatever it was returned with: the fill is the row's scrub.
func (e *Engine) borrowLevels(n int) []int32 {
	e.mu.Lock()
	row, ok := e.levels.pop(e, n, nil)
	e.mu.Unlock()
	if !ok {
		row = make([]int32, n)
	}
	for v := range row {
		row[v] = NoLevel
	}
	return row
}

// borrowLevelRows checks out one batch's k level rows (borrowLevels each).
//
//bfs:arena-held the rows ride in the batch's MultiResult; the caller frees them with Engine.ReleaseLevels
func (e *Engine) borrowLevelRows(n, k int) [][]int32 {
	rows := make([][]int32, k) //bfs:alloc-ok k pointers per batch, not per vertex
	for i := range rows {
		rows[i] = e.borrowLevels(n)
	}
	return rows
}

// ReleaseLevels hands level rows (e.g. Result.Levels or the rows of
// MultiResult.Levels) back to the arena. Only call it when the caller is
// done reading them — a released row is recycled into a future result.
func (e *Engine) ReleaseLevels(rows ...[]int32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, row := range rows {
		if row != nil {
			e.levels.push(e, len(row), row)
		}
	}
}

// checkoutShell pops a warm kernel shell for the run shape, or nil on a
// cold miss. The caller re-binds graph/options/pool and runs the
// first-touch zero pass, which doubles as the scrub. Shells park under
// their shape without the active prefix, and a shell serves any run whose
// prefix its own covers: each generation of a dynamic graph, and each run
// with or without an overlay, may have its own prefix, and keying shells
// by it would build new ones for each.
func (e *Engine) checkoutShell(key shellKey) *levelStep {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, _ := e.shells.pop(e, key.shape(), func(sh *levelStep) bool { return sh.active >= key.active })
	return sh
}

func (e *Engine) checkinShell(sh *levelStep) {
	key := sh.key
	// Drop references that would pin the caller's graph (and its Tracer)
	// in the arena; the next open and begin re-bind them. MSPBFSEngine.Close
	// has already dropped the visitor.
	sh.shellRun, sh.rec = shellRun{}, iterRecorder{}
	e.mu.Lock()
	defer e.mu.Unlock()
	// A shell a larger one covers would only ever serve runs that one
	// serves too; parking both would keep the smaller one's state live.
	e.shells.drop(e, key.shape(), func(p *levelStep) bool { return p.active < sh.active })
	e.shells.push(e, key.shape(), sh)
}
