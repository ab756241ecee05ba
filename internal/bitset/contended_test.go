package bitset

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The contended tests drive the lock-free primitives from many goroutines
// at once. They are correctness tests in any build, but their real job is
// to run under `go test -race`: a missed atomic in the CAS-OR protocol
// shows up here as a race report or a lost bit.

// TestAtomicOrVertexContendedNoLostBits has one goroutine per source bit,
// all merging into the same vertex rows concurrently. Every bit must
// survive: a lost CAS would clear another goroutine's bit.
func TestAtomicOrVertexContendedNoLostBits(t *testing.T) {
	const (
		n     = 64
		words = 2
		bits  = words * WordBits
	)
	s := NewState(n, words)

	var wg sync.WaitGroup
	for b := 0; b < bits; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			mask := make([]uint64, words)
			mask[b/WordBits] = 1 << (uint(b) % WordBits)
			for v := 0; v < n; v++ {
				if !s.AtomicOrVertex(v, mask) {
					t.Errorf("bit %d vertex %d: fresh bit reported unchanged", b, v)
					return
				}
			}
		}(b)
	}
	wg.Wait()

	for v := 0; v < n; v++ {
		for i, w := range s.Row(v) {
			if w != ^uint64(0) {
				t.Fatalf("vertex %d word %d: %#x, want all ones (lost bits under contention)", v, i, w)
			}
		}
	}
}

// TestAtomicOrVertexContendedChangedOnce has G goroutines all racing to
// merge the same mask into each vertex. Exactly one must observe the
// transition; the CAS loop's changed-word detection is what MS-PBFS uses
// to claim a (source, vertex) discovery, so a double count here is a
// duplicated discovery there.
func TestAtomicOrVertexContendedChangedOnce(t *testing.T) {
	const (
		n = 512
		g = 16
	)
	s := NewState(n, 1)
	mask := []uint64{0xdeadbeef}
	changed := make([]int64, n)

	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < n; v++ {
				if s.AtomicOrVertex(v, mask) {
					atomic.AddInt64(&changed[v], 1)
				}
			}
		}()
	}
	wg.Wait()

	for v := 0; v < n; v++ {
		if changed[v] != 1 {
			t.Fatalf("vertex %d: %d goroutines observed the change, want exactly 1", v, changed[v])
		}
	}
}

// TestBitmapAtomicSetContended races AtomicSet over every vertex from
// many goroutines: each vertex must be claimed exactly once and end up
// set. This is the discovery protocol of the SMS-PBFS bit representation.
func TestBitmapAtomicSetContended(t *testing.T) {
	testVertexSetContended(t, "Bitmap", func(n int) interface {
		AtomicSet(v int) bool
		Get(v int) bool
	} {
		return NewBitmap(n)
	})
}

func testVertexSetContended(t *testing.T, name string, mk func(n int) interface {
	AtomicSet(v int) bool
	Get(v int) bool
}) {
	t.Helper()
	const n = 4096
	g := runtime.GOMAXPROCS(0) * 2
	if g < 4 {
		g = 4
	}
	set := mk(n)
	var claimed int64

	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the vertices from its own offset so the
			// collisions spread over the whole array instead of marching in
			// lockstep.
			for i := 0; i < n; i++ {
				v := (i + w*(n/g)) % n
				if set.AtomicSet(v) {
					atomic.AddInt64(&claimed, 1)
				}
			}
		}(w)
	}
	wg.Wait()

	if claimed != n {
		t.Fatalf("%s: %d claims for %d vertices, want exactly one claim each", name, claimed, n)
	}
	for v := 0; v < n; v++ {
		if !set.Get(v) {
			t.Fatalf("%s: vertex %d not set after contended AtomicSet", name, v)
		}
	}
}
