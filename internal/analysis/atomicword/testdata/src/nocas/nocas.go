// Package nocas is the golden corpus for atomicword's //bfs:nocas rule:
// every atomic call inside a //bfs:nocas function must be flagged;
// unmarked functions and plain-store code must stay quiet. Plain stores
// carry //bfs:singlewriter, as the real //bfs:nocas kernels do.
package nocas

import "sync/atomic"

var words = make([]uint64, 64)

// slab mimics the bitset CAS-OR surface by naming convention.
type slab struct{ w []uint64 }

func (s *slab) AtomicOrVertex(v int, mask uint64) bool {
	for {
		old := atomic.LoadUint64(&s.w[v])
		if old|mask == old {
			return false
		}
		if atomic.CompareAndSwapUint64(&s.w[v], old, old|mask) {
			return true
		}
	}
}

// Mark is a plain-store method.
//
//bfs:singlewriter the slab is worker-private
func (s *slab) Mark(v int, mask uint64) { s.w[v] |= mask }

// unannotatedMark is the same store without the annotation.
func (s *slab) unannotatedMark(v int, mask uint64) {
	s.w[v] |= mask // want `non-atomic \|= on \[\]uint64`
}

// scatter is the plain-store path the mark is meant to protect.
//
//bfs:nocas
//bfs:singlewriter each worker owns the words it scatters into
func scatter(s *slab, v int, mask uint64) {
	words[v] |= mask // plain store: quiet
	s.Mark(v, mask)  // plain-store method: quiet
}

// driftedScatter shows every way the claim erodes.
//
//bfs:nocas
func driftedScatter(s *slab, v int, mask uint64, c *atomic.Int64) {
	atomic.AddUint64(&words[v], mask)               // want `sync/atomic call AddUint64 inside //bfs:nocas function driftedScatter`
	atomic.CompareAndSwapUint64(&words[v], 0, mask) // want `sync/atomic call CompareAndSwapUint64 inside //bfs:nocas function driftedScatter`
	c.Add(1)                                        // want `sync/atomic call Add inside //bfs:nocas function driftedScatter`
	s.AtomicOrVertex(v, mask)                       // want `atomic primitive AtomicOrVertex inside //bfs:nocas function driftedScatter`
}

// nestedClosure proves the mark covers inline function literals too.
//
//bfs:nocas
func nestedClosure(v int, mask uint64) {
	f := func() {
		atomic.OrUint64(&words[v], mask) // want `sync/atomic call OrUint64 inside //bfs:nocas function nestedClosure`
	}
	f()
}

// casFallback is the unmarked CAS path: atomics are its job.
func casFallback(s *slab, v int, mask uint64) {
	atomic.AddUint64(&words[v], mask) // unmarked function: quiet
	s.AtomicOrVertex(v, mask)         // unmarked function: quiet
}
