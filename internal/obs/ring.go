package obs

import "slices"

// Ring is a bounded record buffer: once it holds its capacity, each Push
// overwrites the oldest value and counts it dropped. Build one with
// NewRing; it is not safe for concurrent use, its owner locks.
type Ring[T any] struct {
	buf     []T // fills to its capacity, then wraps
	head    int // index of the oldest value once full
	dropped uint64
}

// NewRing returns an empty ring that keeps the newest capacity values
// (capacity > 0).
func NewRing[T any](capacity int) Ring[T] { return Ring[T]{buf: make([]T, 0, capacity)} }

// Push appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Copy returns the kept values oldest-first; nil when there are none.
func (r *Ring[T]) Copy() []T { return slices.Concat(r.buf[r.head:], r.buf[:r.head]) }

// Dropped counts the values evicted so far.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }
