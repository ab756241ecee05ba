// Package a is the arenarelease golden corpus: a local model of the
// engine arena (a named type Engine with borrow/return methods, matching
// the analyzer's name-based detection) exercising released, leaked, held
// and annotated borrows.
package a

// Engine models the core execution engine's arena surface.
type Engine struct{}

type Bitmap struct{ words []uint64 }

func (e *Engine) borrowBitmap(n int) *Bitmap    { return &Bitmap{make([]uint64, (n+63)/64)} }
func (e *Engine) returnBitmap(b *Bitmap)        {}
func (e *Engine) borrowLevels(n int) []int32    { return make([]int32, n) }
func (e *Engine) ReleaseLevels(rows ...[]int32) {}
func (e *Engine) BorrowPool(workers int) (*Pool, func()) {
	p := &Pool{}
	return p, func() {}
}

type Pool struct{}

type Result struct{ Levels []int32 }

var global *Bitmap

// DeferredRelease is the canonical correct shape: borrows released by a
// deferred closure cover every path, including the early return.
func DeferredRelease(e *Engine, n int, bail bool) {
	seen := e.borrowBitmap(n)
	next := e.borrowBitmap(n)
	defer func() {
		e.returnBitmap(seen)
		e.returnBitmap(next)
	}()
	if bail {
		return
	}
	seen.words[0] = 1
	next.words[0] = 2
}

// DirectDefer releases with a plain deferred call.
func DirectDefer(e *Engine, n int) {
	seen := e.borrowBitmap(n)
	defer e.returnBitmap(seen)
	seen.words[0] = 1
}

// EarlyReturnLeak releases on the main path but leaks on the error path.
func EarlyReturnLeak(e *Engine, n int, bad bool) {
	seen := e.borrowBitmap(n)
	if bad {
		return // want `early return leaks arena borrow seen`
	}
	seen.words[0] = 1
	e.returnBitmap(seen)
}

// FallThroughLeak never releases at all.
func FallThroughLeak(e *Engine, n int) {
	seen := e.borrowBitmap(n) // want `not released on the fall-through path`
	seen.words[0] = 1
}

// BranchRelease releases on both arms of a branch, which counts as all
// paths covered.
func BranchRelease(e *Engine, n int, fast bool) {
	seen := e.borrowBitmap(n)
	if fast {
		e.returnBitmap(seen)
	} else {
		seen.words[0] = 1
		e.returnBitmap(seen)
	}
}

// OneArmRelease leaves the else arm holding the borrow.
func OneArmRelease(e *Engine, n int, fast bool) {
	seen := e.borrowBitmap(n) // want `not released on the fall-through path`
	if fast {
		e.returnBitmap(seen)
	}
}

// LoopRelease only releases if the loop body runs, which the analyzer
// conservatively treats as a leak (zero-iteration path).
func LoopRelease(e *Engine, n int, xs []int) {
	seen := e.borrowBitmap(n) // want `not released on the fall-through path`
	for range xs {
		e.returnBitmap(seen)
	}
}

// EscapesToResult hands the level row to the caller without declaring it.
func EscapesToResult(e *Engine, n int) *Result {
	levels := e.borrowLevels(n) // want `escapes this function`
	return &Result{Levels: levels}
}

// HeldByAnnotation is the sanctioned escape: the annotation names the
// release path, so the analyzer stays quiet.
func HeldByAnnotation(e *Engine, n int) *Result {
	levels := e.borrowLevels(n) //bfs:arena-held released by Engine.ReleaseLevels when the caller frees the Result
	return &Result{Levels: levels}
}

// ReturnedBorrow returns the borrow directly: no local to track, so the
// call site itself needs the annotation.
func ReturnedBorrow(e *Engine, n int) *Bitmap {
	return e.borrowBitmap(n) // want `stored outside the function \(or discarded\)`
}

// ReturnedBorrowHeld is the annotated variant.
func ReturnedBorrowHeld(e *Engine, n int) *Bitmap {
	return e.borrowBitmap(n) //bfs:arena-held caller returns it via returnBitmap
}

// StoredToGlobal assigns the borrow straight to package state.
func StoredToGlobal(e *Engine, n int) {
	global = e.borrowBitmap(n) // want `stored outside the function \(or discarded\)`
}

// PoolReleaseClosure uses BorrowPool's release closure, deferred.
func PoolReleaseClosure(e *Engine) {
	pool, release := e.BorrowPool(4)
	defer release()
	_ = pool
}

// PoolReleaseLeak forgets to call the closure.
func PoolReleaseLeak(e *Engine) {
	pool, release := e.BorrowPool(4) // want `not released on the fall-through path`
	_ = pool
	_ = release
}

// SwapAlias swaps two borrows through locals before releasing: local
// aliasing is not an escape, and the deferred closure covers both.
func SwapAlias(e *Engine, n int) {
	front := e.borrowBitmap(n)
	next := e.borrowBitmap(n)
	defer func() {
		e.returnBitmap(front)
		e.returnBitmap(next)
	}()
	for i := 0; i < 3; i++ {
		front, next = next, front
	}
	front.words[0] = 1
}

// VariadicRelease releases through the variadic Release* form.
func VariadicRelease(e *Engine, n int) {
	levels := e.borrowLevels(n)
	e.ReleaseLevels(levels)
}

// DynGraph models the dynamic graph's MVCC snapshot surface: Acquire* and
// Pin pin a version, the pin is dropped by the snapshot's own Release
// method.
type DynGraph struct{}

type Snapshot struct{}

func (s *Snapshot) Release() {}
func (s *Snapshot) Run() int  { return 0 }

func (d *DynGraph) Acquire() (*Snapshot, error)                  { return &Snapshot{}, nil }
func (d *DynGraph) AcquireVersion(ver uint64) (*Snapshot, error) { return &Snapshot{}, nil }
func (d *DynGraph) Pin(ver uint64) (*Snapshot, error)            { return &Snapshot{}, nil }

// Backend models the server-side seam in front of the acquire surface.
type Backend interface {
	Pin(ver uint64) (*Snapshot, error)
}

// SnapshotDeferredRelease is the canonical pin shape: bail on the error
// arm (no pin held there), defer the snapshot's Release for every other
// path.
func SnapshotDeferredRelease(d *DynGraph) error {
	snap, err := d.AcquireVersion(3)
	if err != nil {
		return err // acquire failed: nothing pinned, not a leak
	}
	defer snap.Release()
	return nil
}

// SnapshotEarlyReturnLeak releases at the end but leaks the pin when it
// bails between acquire and release.
func SnapshotEarlyReturnLeak(d *DynGraph, bad bool) error {
	snap, err := d.Acquire()
	if err != nil {
		return err
	}
	if bad {
		return nil // want `early return leaks arena borrow snap`
	}
	snap.Release()
	return nil
}

// SnapshotFallThroughLeak never releases the pin at all.
func SnapshotFallThroughLeak(b Backend) {
	snap, err := b.Pin(1) // want `not released on the fall-through path`
	if err != nil {
		return
	}
	_ = snap
}

// SnapshotPinLeak pins through the dynamic graph itself and never releases.
func SnapshotPinLeak(d *DynGraph) {
	snap, err := d.Pin(0) // want `not released on the fall-through path`
	if err != nil {
		return
	}
	_ = snap.Run()
}

// SnapshotEscapes hands the pinned snapshot to the caller undeclared.
func SnapshotEscapes(d *DynGraph) (*Snapshot, error) {
	snap, err := d.Acquire() // want `escapes this function`
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// SnapshotConsumedInReturn returns the result of a call on the pin, with
// the pin itself released by defer: consumption, not an escape.
func SnapshotConsumedInReturn(d *DynGraph) (int, error) {
	snap, err := d.Acquire()
	if err != nil {
		return 0, err
	}
	defer snap.Release()
	return snap.Run(), nil
}

// SnapshotHeldByAnnotation is the sanctioned handoff: the caller owns the
// pin and the annotation names the release path.
func SnapshotHeldByAnnotation(d *DynGraph) (*Snapshot, error) {
	snap, err := d.Acquire() //bfs:arena-held caller releases via Snapshot.Release
	if err != nil {
		return nil, err
	}
	return snap, nil
}
