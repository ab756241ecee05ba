// Package bitset provides the flat, array-based k-wide bitset state used by
// the MS-BFS family of algorithms.
//
// A State holds one fixed-width bitset per vertex in a single contiguous
// []uint64. The per-vertex width is a small number of 64-bit words
// (1, 2, 4, or 8 words, i.e. 64 to 512 concurrent BFSs). MS-PBFS writes
// it with plain stores only: its first top-down phase (the scatter) writes
// the running worker's own stripe and queues every other row for that
// stripe's owner, who applies it after the barrier (//bfs:nocas), and the
// resolve and bottom-up phases touch each vertex from exactly one worker.
//
// AtomicOrVertex is the paper's atomic merge (Section 3.1.1), a series of
// independent per-word compare-and-swap updates: the operation only ever
// sets bits, so word-at-a-time CAS retains the full-bitset semantics. Its
// one caller is the iBFS baseline, whose workers merge into shared rows.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// MaxWords is the largest supported per-vertex width in 64-bit words
// (8 words = 512 concurrent BFSs).
const MaxWords = 8

// WordBits is the number of bits per state word.
const WordBits = 64

// State is a dense array of fixed-width bitsets, one per vertex.
type State struct {
	words []uint64
	// stride is the number of uint64 words per vertex.
	stride int
}

// NewState allocates a State for n vertices with the given per-vertex width
// in 64-bit words. It panics if words is not in [1, MaxWords].
func NewState(n, words int) *State {
	if words < 1 || words > MaxWords {
		panic(fmt.Sprintf("bitset: width %d words out of range [1,%d]", words, MaxWords))
	}
	if n < 0 {
		panic("bitset: negative vertex count")
	}
	return &State{
		words:  make([]uint64, n*words),
		stride: words,
	}
}

// Stride returns the per-vertex width in 64-bit words.
func (s *State) Stride() int { return s.stride }

// Bits returns the per-vertex width in bits.
func (s *State) Bits() int { return s.stride * WordBits }

// Words exposes the backing word slice. The slice is laid out as
// stride consecutive words per vertex. It is intended for tight inner
// loops in the BFS kernels; casual callers should prefer the accessors.
func (s *State) Words() []uint64 { return s.words }

// Row returns the slice of words backing vertex v's bitset.
func (s *State) Row(v int) []uint64 {
	off := v * s.stride
	return s.words[off : off+s.stride : off+s.stride]
}

// Set sets bit i of vertex v's bitset (single-writer).
func (s *State) Set(v, i int) {
	s.words[v*s.stride+i/WordBits] |= 1 << (uint(i) % WordBits)
}

// Any reports whether any bit of vertex v's bitset is set.
func (s *State) Any(v int) bool {
	off := v * s.stride
	for i := 0; i < s.stride; i++ {
		if s.words[off+i] != 0 {
			return true
		}
	}
	return false
}

// ZeroVertex clears all bits of vertex v's bitset (single-writer).
func (s *State) ZeroVertex(v int) {
	off := v * s.stride
	for i := 0; i < s.stride; i++ {
		s.words[off+i] = 0
	}
}

// ZeroRange clears the bitsets of vertices [lo, hi). It is used by the
// workers during the NUMA-aware parallel initialization so that the pages
// backing a task range are first touched by the owning worker.
func (s *State) ZeroRange(lo, hi int) {
	start, end := lo*s.stride, hi*s.stride
	w := s.words[start:end]
	for i := range w {
		w[i] = 0
	}
}

// OrVertex merges src's bits for vertex v into dst's bits for vertex v
// (single-writer).
func (s *State) OrVertex(v int, src *State, u int) {
	d := v * s.stride
	o := u * src.stride
	for i := 0; i < s.stride; i++ {
		s.words[d+i] |= src.words[o+i]
	}
}

// AtomicOrVertex merges the stride-wide bitset value into vertex v using a
// per-word CAS loop, skipping words whose merge would not change the stored
// value. It reports whether any word was modified. value must have length
// >= stride.
func (s *State) AtomicOrVertex(v int, value []uint64) bool {
	if s.stride == 1 {
		// Fast path for the common 64-BFS configuration: one word, no loop.
		add := value[0]
		if add == 0 {
			return false
		}
		addr := &s.words[v]
		for {
			old := atomic.LoadUint64(addr)
			merged := old | add
			if merged == old {
				return false
			}
			if atomic.CompareAndSwapUint64(addr, old, merged) {
				return true
			}
		}
	}
	off := v * s.stride
	changed := false
	for i := 0; i < s.stride; i++ {
		add := value[i]
		if add == 0 {
			continue
		}
		addr := &s.words[off+i]
		for {
			old := atomic.LoadUint64(addr)
			merged := old | add
			if merged == old {
				break
			}
			if atomic.CompareAndSwapUint64(addr, old, merged) {
				changed = true
				break
			}
		}
	}
	return changed
}

// FullMask returns a fresh stride-wide mask with the lowest k bits set,
// representing k active BFSs.
func (s *State) FullMask(k int) []uint64 {
	if k < 0 || k > s.Bits() {
		panic(fmt.Sprintf("bitset: mask width %d out of range [0,%d]", k, s.Bits()))
	}
	m := make([]uint64, s.stride)
	for i := 0; i < s.stride && k > 0; i++ {
		if k >= WordBits {
			m[i] = ^uint64(0)
			k -= WordBits
		} else {
			m[i] = (uint64(1) << uint(k)) - 1
			k = 0
		}
	}
	return m
}

// CountAll returns the total number of set bits across all vertices.
func (s *State) CountAll() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// MemoryBytes returns the size in bytes of the backing array.
func (s *State) MemoryBytes() int64 {
	return int64(len(s.words)) * 8
}
