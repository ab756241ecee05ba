package core

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/numa"
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
// the borrow path (states and bitmaps are zeroed, level rows are refilled
// with NoLevel by the kernels), so a recycled state can never leak a
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

	pools   map[int][]*sched.Pool     // keyed by worker count
	pinned  map[int][]*sched.Pool     // CPU-pinned pools (Options.RealPlacement)
	shells  map[shellKey][]*levelStep // warm MS-/SMS-PBFS shells (counters+scratch+states)
	states  map[stateKey][]*bitset.State
	bitmaps map[int][]*bitset.Bitmap // keyed by vertex count
	levels  map[int][][]int32        // keyed by row length

	freeBytes int64 // bytes parked in the arena free lists (pools excluded)
	borrowed  int64 // artifacts currently checked out
	hits      uint64
	misses    uint64

	// placerVal is the engine's NUMA placer (Options.RealPlacement), built
	// lazily and retained for the process lifetime: its mmap spans back
	// live bitset slabs inside checked-out shells and returned results, so
	// Close must NOT release it — unmapping would turn every outstanding
	// slab reference into a fault. The spans are reclaimed by process exit.
	placerOnce sync.Once
	placerVal  *numa.Placer
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

// NewEngine returns an empty engine; pools and arena entries are created
// on first miss and recycled after that. Prewarm forces the pool spawn
// ahead of the first query.
func NewEngine() *Engine {
	return &Engine{
		pools:   make(map[int][]*sched.Pool),
		pinned:  make(map[int][]*sched.Pool),
		shells:  make(map[shellKey][]*levelStep),
		states:  make(map[stateKey][]*bitset.State),
		bitmaps: make(map[int][]*bitset.Bitmap),
		levels:  make(map[int][][]int32),
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
		FreeBytes: e.freeBytes,
		Borrowed:  e.borrowed,
		Hits:      e.hits,
		Misses:    e.misses,
	}
	for workers, l := range e.pools {
		st.FreePools += len(l)
		st.PooledWorkers += workers * len(l)
	}
	for workers, l := range e.pinned {
		st.FreePools += len(l)
		st.PooledWorkers += workers * len(l)
	}
	for _, l := range e.shells {
		st.FreeShells += len(l)
	}
	for _, l := range e.states {
		st.FreeStates += len(l)
	}
	for _, l := range e.bitmaps {
		st.FreeBitmaps += len(l)
	}
	for _, l := range e.levels {
		st.FreeLevelRows += len(l)
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
	pools := e.pools
	pinned := e.pinned
	e.pools = make(map[int][]*sched.Pool)
	e.pinned = make(map[int][]*sched.Pool)
	e.shells = make(map[shellKey][]*levelStep)
	e.states = make(map[stateKey][]*bitset.State)
	e.bitmaps = make(map[int][]*bitset.Bitmap)
	e.levels = make(map[int][][]int32)
	e.freeBytes = 0
	e.closed = true
	e.mu.Unlock()
	for _, l := range pools {
		for _, p := range l {
			p.Close()
		}
	}
	for _, l := range pinned {
		for _, p := range l {
			p.Close()
		}
	}
	// The placer (and its mmap spans) is deliberately NOT released: see the
	// field comment. Close drops pooled goroutines and arena arrays only.
}

// Prewarm spawns (or verifies) one pooled worker set of the given width so
// the first query does not pay the goroutine spawn.
func (e *Engine) Prewarm(workers int) {
	p := e.borrowPool(workers)
	e.returnPool(p)
}

// BorrowPool checks out a worker pool of the given width for exclusive
// use and returns it with a release func. Release is idempotent. This is
// the engine-routed replacement for ad-hoc sched.NewPool call sites
// (Triangles, Graph500 harnesses, DeriveParents drivers).
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
	if l := e.pools[workers]; len(l) > 0 {
		p := l[len(l)-1]
		l[len(l)-1] = nil
		e.pools[workers] = l[:len(l)-1]
		e.hits++
		e.borrowed++
		e.mu.Unlock()
		return p
	}
	e.misses++
	e.borrowed++
	e.mu.Unlock()
	// Spawning workers outside the lock keeps a cold miss from stalling
	// concurrent borrowers.
	return sched.NewPool(workers, false)
}

func (e *Engine) returnPool(p *sched.Pool) {
	if p == nil {
		return
	}
	// Pinned pools recycle separately: a pool whose workers are bound to
	// CPUs must never serve a run that did not ask for placement.
	cache := &e.pools
	if p.Pinned() {
		cache = &e.pinned
	}
	e.mu.Lock()
	e.borrowed--
	if e.closed || len((*cache)[p.Workers()]) >= maxFreePools {
		e.mu.Unlock()
		p.Close()
		return
	}
	(*cache)[p.Workers()] = append((*cache)[p.Workers()], p)
	e.mu.Unlock()
}

// placer returns the engine's process-lifetime NUMA placer, building it on
// first use. Never released — see the field comment.
func (e *Engine) placer() *numa.Placer {
	e.placerOnce.Do(func() { e.placerVal = numa.NewPlacer() })
	return e.placerVal
}

// slabAlloc resolves the bitset slab allocator for a run: the placer's
// mmap-backed allocator under Options.RealPlacement (so first-touch and
// mbind control page placement), nil (plain make) otherwise.
func (e *Engine) slabAlloc(opt Options) bitset.ShadowAlloc {
	if !opt.RealPlacement {
		return nil
	}
	return e.placer().AllocUint64
}

// borrowPinnedPool checks out a pool whose workers are pinned to CPUs via
// the engine's placer — the thread-affinity half of RealPlacement (the
// memory half is slabAlloc + Placer.Interleave). Cached separately from
// unpinned pools; hand back through returnPool as usual.
func (e *Engine) borrowPinnedPool(workers int) *sched.Pool {
	e.mu.Lock()
	if l := e.pinned[workers]; len(l) > 0 {
		p := l[len(l)-1]
		l[len(l)-1] = nil
		e.pinned[workers] = l[:len(l)-1]
		e.hits++
		e.borrowed++
		e.mu.Unlock()
		return p
	}
	e.misses++
	e.borrowed++
	e.mu.Unlock()
	placer := e.placer()
	return sched.NewPoolPinned(workers, true, placer.PinWorker)
}

// BorrowState checks out an n-vertex, words-wide bitset State for a sibling
// internal subsystem (the cluster shard borrows its per-query seen, frontier
// and delta-accumulator states here so repeated queries over one partition
// recycle their arrays). The state arrives scrubbed to all zeros; hand it
// back with ReturnState when the query ends.
func (e *Engine) BorrowState(n, words int) *bitset.State {
	return e.borrowState(n, words) //bfs:arena-held ownership transfers to the caller, released via ReturnState
}

// ReturnState hands a BorrowState checkout back to the arena.
func (e *Engine) ReturnState(s *bitset.State) { e.returnState(s) }

// BorrowLevels checks out one n-long level row (not scrubbed — fill with
// NoLevel before exposing it). Release with ReleaseLevels.
func (e *Engine) BorrowLevels(n int) []int32 {
	return e.borrowLevels(n) //bfs:arena-held ownership transfers to the caller, released via ReleaseLevels
}

// borrowState checks out an n-vertex, words-wide State, scrubbed to all
// zeros regardless of the condition it was returned in.
func (e *Engine) borrowState(n, words int) *bitset.State {
	e.mu.Lock()
	key := stateKey{n: n, words: words}
	if l := e.states[key]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		e.states[key] = l[:len(l)-1]
		e.hits++
		e.borrowed++
		e.freeBytes -= s.MemoryBytes()
		e.mu.Unlock()
		s.ZeroRange(0, n) // scrub: a recycled state never leaks visited bits
		if debugInvariants {
			debugCheckBorrowedClean("State", s.CountAll())
		}
		return s
	}
	e.misses++
	e.borrowed++
	e.mu.Unlock()
	return bitset.NewState(n, words)
}

func (e *Engine) returnState(s *bitset.State) {
	if s == nil {
		return
	}
	key := stateKey{n: s.Len(), words: s.Stride()}
	e.mu.Lock()
	e.borrowed--
	if e.closed || len(e.states[key]) >= maxFreeStates {
		e.mu.Unlock()
		return
	}
	e.states[key] = append(e.states[key], s)
	e.freeBytes += s.MemoryBytes()
	e.mu.Unlock()
}

// borrowBitmap checks out an n-vertex bitmap, scrubbed to all zeros.
func (e *Engine) borrowBitmap(n int) *bitset.Bitmap {
	e.mu.Lock()
	if l := e.bitmaps[n]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		e.bitmaps[n] = l[:len(l)-1]
		e.hits++
		e.borrowed++
		e.freeBytes -= b.MemoryBytes()
		e.mu.Unlock()
		b.ZeroRange(0, n)
		if debugInvariants {
			debugCheckBorrowedClean("Bitmap", b.Count())
		}
		return b
	}
	e.misses++
	e.borrowed++
	e.mu.Unlock()
	return bitset.NewBitmap(n)
}

func (e *Engine) returnBitmap(b *bitset.Bitmap) {
	if b == nil {
		return
	}
	n := b.Len()
	e.mu.Lock()
	e.borrowed--
	if e.closed || len(e.bitmaps[n]) >= maxFreeMaps {
		e.mu.Unlock()
		return
	}
	e.bitmaps[n] = append(e.bitmaps[n], b)
	e.freeBytes += b.MemoryBytes()
	e.mu.Unlock()
}

// borrowLevels checks out one n-long level row. The kernels' NoLevel fill
// is the scrub for level rows — every row is overwritten in full before it
// can be read — so no zeroing happens here.
func (e *Engine) borrowLevels(n int) []int32 {
	e.mu.Lock()
	if l := e.levels[n]; len(l) > 0 {
		row := l[len(l)-1]
		l[len(l)-1] = nil
		e.levels[n] = l[:len(l)-1]
		e.hits++
		e.borrowed++
		e.freeBytes -= int64(n) * 4
		e.mu.Unlock()
		return row
	}
	e.misses++
	e.borrowed++
	e.mu.Unlock()
	return make([]int32, n)
}

// ReleaseLevels hands level rows (e.g. Result.Levels or the rows of
// MultiResult.Levels) back to the arena. Only call it when the caller is
// done reading them — a released row is recycled into a future result.
func (e *Engine) ReleaseLevels(rows ...[]int32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, row := range rows {
		if row == nil {
			continue
		}
		n := len(row)
		e.borrowed--
		if e.closed || len(e.levels[n]) >= maxFreeLevels {
			continue
		}
		e.levels[n] = append(e.levels[n], row)
		e.freeBytes += int64(n) * 4
	}
}

// checkoutShell pops a warm kernel shell for the exact run shape, or nil on
// a cold miss. The caller re-binds graph/options/pool and runs the
// first-touch zero pass, which doubles as the scrub.
func (e *Engine) checkoutShell(key shellKey) *levelStep {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.shells[key]
	if len(l) == 0 {
		e.misses++
		e.borrowed++
		return nil
	}
	sh := l[len(l)-1]
	l[len(l)-1] = nil
	e.shells[key] = l[:len(l)-1]
	e.hits++
	e.borrowed++
	e.freeBytes -= sh.bytes
	return sh
}

func (e *Engine) checkinShell(sh *levelStep) {
	key := sh.key
	// Drop references that would pin the caller's graph (and any OnVisit
	// closure) in the arena; the next open re-binds them.
	sh.shellRun = shellRun{}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.borrowed--
	if e.closed || len(e.shells[key]) >= maxFreeShells {
		return
	}
	e.shells[key] = append(e.shells[key], sh)
	e.freeBytes += sh.bytes
}
