package core

import (
	"testing"
	"testing/quick"
)

// The SMS-PBFS state in both representations: a vertex's slot, the words
// the chunk-skipping sweeps read, and the slot-precise ZeroRange.

var reprs = []StateRepr{BitState, ByteState}

func TestStateSetBasics(t *testing.T) {
	for _, repr := range reprs {
		s := newStateSet(130, repr)
		if want := (130 + s.slots() - 1) / s.slots(); len(s.words) != want {
			t.Fatalf("%s: %d words for 130 vertices, want %d", repr, len(s.words), want)
		}
		marked := []int{0, 7, 8, 63, 64, 129}
		for _, v := range marked {
			if s.Get(v) {
				t.Fatalf("%s: vertex %d marked on a fresh set", repr, v)
			}
			s.Set(v)
			if !s.Get(v) {
				t.Fatalf("%s: vertex %d not marked after Set", repr, v)
			}
		}
		if s.Count() != len(marked) {
			t.Fatalf("%s: Count = %d, want %d", repr, s.Count(), len(marked))
		}
		s.ZeroRange(8, 9)
		if s.Get(8) {
			t.Errorf("%s: vertex 8 still marked after ZeroRange(8, 9)", repr)
		}
		if !s.Get(7) || !s.Get(0) || !s.Get(63) || s.Count() != len(marked)-1 {
			t.Errorf("%s: ZeroRange(8, 9) disturbed its neighbors (Count %d)", repr, s.Count())
		}
	}
}

// TestQuickStateSetZeroRange clears random ranges, most of them ending
// inside a word, of a full set.
func TestQuickStateSetZeroRange(t *testing.T) {
	const n = 100
	for _, repr := range reprs {
		f := func(rawLo, rawHi uint8) bool {
			lo := int(rawLo) % (n + 1)
			hi := int(rawHi) % (n + 1)
			if lo > hi {
				lo, hi = hi, lo
			}
			s := newStateSet(n, repr)
			for v := 0; v < n; v++ {
				s.Set(v)
			}
			s.ZeroRange(lo, hi)
			for v := 0; v < n; v++ {
				if want := v < lo || v >= hi; s.Get(v) != want {
					return false
				}
			}
			return s.Count() == n-(hi-lo)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", repr, err)
		}
	}
}

// TestStateSetMarkLayout pins the word layout Mark writes and the sweeps
// read: vertex v is bit (v<<lg)&63 of word v>>shift, and only a slot's
// lowest bit is ever set, so a word's population is its marked vertices.
func TestStateSetMarkLayout(t *testing.T) {
	for _, tc := range []struct {
		repr    StateRepr
		v, word int
		bit     uint
		lowBits uint64
		perWord int
	}{
		{BitState, 9, 0, 9, ^uint64(0), 64},
		{BitState, 70, 1, 6, ^uint64(0), 64},
		{ByteState, 9, 1, 8, 0x0101010101010101, 8},
		{ByteState, 23, 2, 56, 0x0101010101010101, 8},
	} {
		s := newStateSet(128, tc.repr)
		slab := make([]uint64, len(s.words))
		s.Mark(slab, tc.v)
		for i, w := range slab {
			want := uint64(0)
			if i == tc.word {
				want = 1 << tc.bit
			}
			if w != want {
				t.Errorf("%s: Mark(%d) left word %d = %#x, want %#x", tc.repr, tc.v, i, w, want)
			}
		}
		s.Set(tc.v)
		if s.words[tc.word] != slab[tc.word] {
			t.Errorf("%s: Set(%d) wrote %#x, Mark %#x", tc.repr, tc.v, s.words[tc.word], slab[tc.word])
		}
		if s.lowBits() != tc.lowBits || s.slots() != tc.perWord {
			t.Errorf("%s: lowBits %#x, %d slots a word; want %#x, %d", tc.repr, s.lowBits(), s.slots(), tc.lowBits, tc.perWord)
		}
		for v := 0; v < 128; v++ {
			s.Set(v)
		}
		for i, w := range s.words {
			if w != s.lowBits() {
				t.Errorf("%s: full word %d = %#x, want lowBits %#x", tc.repr, i, w, s.lowBits())
			}
		}
	}
}
