package bitset

// Accessors only this package's tests read; the program itself has no use
// for them.

import (
	"math/bits"
)

// Get reports whether bit i of vertex v's bitset is set.
func (s *State) Get(v, i int) bool {
	return s.words[v*s.stride+i/WordBits]&(1<<(uint(i)%WordBits)) != 0
}

// Clear unsets bit i of vertex v's bitset (single-writer).
func (s *State) Clear(v, i int) {
	s.words[v*s.stride+i/WordBits] &^= 1 << (uint(i) % WordBits)
}

// Count returns the number of set bits in vertex v's bitset.
func (s *State) Count(v int) int {
	off := v * s.stride
	c := 0
	for i := 0; i < s.stride; i++ {
		c += bits.OnesCount64(s.words[off+i])
	}
	return c
}
