package bitset

import (
	"math/bits"
	"sync/atomic"
)

// Bitmap is a dense single-bit-per-vertex bitmap used by the Beamer
// baselines and iBFS. It supports the 64-vertex chunk skipping described in
// Section 3.2 of the paper: a whole word of 64 vertex states can be tested
// against zero in one instruction.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap allocates a bitmap for n vertices.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of vertices the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words for chunk-skipping scans.
func (b *Bitmap) Words() []uint64 { return b.words }

// Get reports whether vertex v's bit is set.
func (b *Bitmap) Get(v int) bool {
	return b.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Set sets vertex v's bit (single-writer).
func (b *Bitmap) Set(v int) {
	b.words[v>>6] |= 1 << (uint(v) & 63)
}

// Clear unsets vertex v's bit (single-writer).
func (b *Bitmap) Clear(v int) {
	b.words[v>>6] &^= 1 << (uint(v) & 63)
}

// AtomicSet sets vertex v's bit with an atomic OR (CAS loop). It reports
// whether this call changed the bit, allowing callers to skip redundant
// writes and the cache-line invalidations they would cause.
func (b *Bitmap) AtomicSet(v int) bool {
	addr := &b.words[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ZeroRange clears the bits of vertices [lo, hi). Partial boundary words are
// handled bit-precisely so adjacent ranges can be cleared concurrently only
// if they are word-aligned; the BFS kernels always use word-aligned task
// ranges for exactly this reason.
func (b *Bitmap) ZeroRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loWord, hiWord := lo>>6, (hi-1)>>6
	loBit, hiBit := uint(lo)&63, uint(hi-1)&63
	if loWord == hiWord {
		mask := (allOnesFrom(loBit)) & allOnesTo(hiBit)
		b.words[loWord] &^= mask
		return
	}
	b.words[loWord] &^= allOnesFrom(loBit)
	for w := loWord + 1; w < hiWord; w++ {
		b.words[w] = 0
	}
	b.words[hiWord] &^= allOnesTo(hiBit)
}

func allOnesFrom(bit uint) uint64 { return ^uint64(0) << bit }
func allOnesTo(bit uint) uint64   { return ^uint64(0) >> (63 - bit) }

// NextSetBit returns the index of the first set bit >= v, or -1 if none.
// It scans word-at-a-time (the chunk skipping optimization).
func (b *Bitmap) NextSetBit(v int) int {
	if v < 0 {
		v = 0
	}
	if v >= b.n {
		return -1
	}
	wi := v >> 6
	w := b.words[wi] &^ ((1 << (uint(v) & 63)) - 1)
	for {
		if w != 0 {
			r := wi<<6 + bits.TrailingZeros64(w)
			if r >= b.n {
				return -1
			}
			return r
		}
		wi++
		if wi >= len(b.words) {
			return -1
		}
		w = b.words[wi]
	}
}

// MemoryBytes returns the size in bytes of the backing array.
func (b *Bitmap) MemoryBytes() int64 {
	return int64(len(b.words)) * 8
}
