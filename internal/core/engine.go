package core

import (
	"slices"
	"sync"

	"repro/internal/sched"
)

// Engine is the long-lived execution substrate of the MS-PBFS and SMS-PBFS
// kernels: persistent sched.Pool worker sets plus a shape-keyed arena that
// recycles what those kernels otherwise rebuild on every call — whole
// kernel shells (k-wide state triples, per-worker padded counters,
// scratch/liveBits words and scatter inboxes). The paper's comparators
// (MS-BFS, iBFS, Beamer) never touch it. Level rows are not lent either:
// a run that records levels allocates them, and they belong to its caller.
//
// The contract is strict hygiene, not trust: a shell is scrubbed on the
// borrow path (its first-touch zero pass clears its state), so a recycled
// shell can never leak a previous query's visited bits even if a caller
// poisons it before it comes back. The bfsdebug build re-verifies this
// with a "borrowed shell is clean" invariant check.
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

	pools  freeList[int, *sched.Pool]     // keyed by worker count
	shells freeList[shellKey, *levelStep] // warm MS-/SMS-PBFS shells (counters+scratch+states)

	freeBytes int64 // bytes parked in the arena free lists (pools excluded)
	borrowed  int64 // artifacts currently checked out
	hits      uint64
	misses    uint64
}

// Per-key free-list bounds. Pools and kernel shells are heavyweight (a
// shell pins 3 k-wide states plus per-worker scratch), so a handful covers
// the realistic concurrency per shape.
const (
	maxFreePools  = 4
	maxFreeShells = 4
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
		pools:  newFreeList[int](maxFreePools, func(*sched.Pool) int64 { return 0 }),
		shells: newFreeList[shellKey](maxFreeShells, (*levelStep).memoryBytes),
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
	// FreeShells counts idle kernel shells (a shell bundles one kernel's
	// whole state).
	FreeShells int
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
		FreePools:  e.pools.parked(),
		FreeShells: e.shells.parked(),
		FreeBytes:  e.freeBytes,
		Borrowed:   e.borrowed,
		Hits:       e.hits,
		Misses:     e.misses,
	}
	for workers, l := range e.pools.free {
		st.PooledWorkers += workers * len(l)
	}
	return st
}

// Close shuts down every pooled worker set and drops the arena. The engine
// stays usable — subsequent borrows allocate fresh and returns are dropped
// — so callers racing a Close degrade gracefully instead of crashing.
func (e *Engine) Close() {
	e.mu.Lock()
	pools := e.pools.drain()
	e.shells.drain()
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
