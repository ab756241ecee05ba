package bitset

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewStatePanics(t *testing.T) {
	for _, words := range []int{0, -1, MaxWords + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState(4, %d) did not panic", words)
				}
			}()
			NewState(4, words)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewState(-1, 1) did not panic")
			}
		}()
		NewState(-1, 1)
	}()
}

func TestStateSetGetClear(t *testing.T) {
	for _, words := range []int{1, 2, 4, 8} {
		s := NewState(10, words)
		if s.Bits() != words*64 {
			t.Fatalf("Bits() = %d, want %d", s.Bits(), words*64)
		}
		for v := 0; v < 10; v++ {
			for i := 0; i < s.Bits(); i += 7 {
				if s.Get(v, i) {
					t.Fatalf("fresh state has bit (%d,%d) set", v, i)
				}
				s.Set(v, i)
				if !s.Get(v, i) {
					t.Fatalf("bit (%d,%d) not set after Set", v, i)
				}
			}
		}
		s.Clear(3, 7)
		if s.Get(3, 7) {
			t.Error("bit (3,7) still set after Clear")
		}
		if !s.Get(3, 0) {
			t.Error("Clear(3,7) affected bit (3,0)")
		}
	}
}

func TestStateAnyCount(t *testing.T) {
	s := NewState(4, 2)
	if s.Any(2) {
		t.Error("Any on fresh state")
	}
	s.Set(2, 0)
	s.Set(2, 64)
	s.Set(2, 127)
	if !s.Any(2) {
		t.Error("Any false after Set")
	}
	if got := s.Count(2); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := s.CountAll(); got != 3 {
		t.Errorf("CountAll = %d, want 3", got)
	}
	s.ZeroVertex(2)
	if s.Any(2) || s.Count(2) != 0 {
		t.Error("ZeroVertex left bits behind")
	}
}

func TestStateZeroRange(t *testing.T) {
	s := NewState(16, 2)
	for v := 0; v < 16; v++ {
		s.Set(v, 5)
	}
	s.ZeroRange(4, 12)
	for v := 0; v < 16; v++ {
		want := v < 4 || v >= 12
		if s.Get(v, 5) != want {
			t.Errorf("vertex %d: got %v, want %v", v, s.Get(v, 5), want)
		}
	}
}

func TestStateOrVertex(t *testing.T) {
	a := NewState(4, 2)
	b := NewState(4, 2)
	b.Set(1, 3)
	b.Set(1, 100)
	a.Set(2, 7)
	a.OrVertex(2, b, 1)
	for _, bit := range []int{3, 7, 100} {
		if !a.Get(2, bit) {
			t.Errorf("bit %d missing after OrVertex", bit)
		}
	}
	if a.Count(2) != 3 {
		t.Errorf("Count = %d, want 3", a.Count(2))
	}
}

func TestAtomicOrVertexReportsChange(t *testing.T) {
	s := NewState(4, 2)
	val := []uint64{0b101, 0}
	if !s.AtomicOrVertex(1, val) {
		t.Error("first merge reported no change")
	}
	if s.AtomicOrVertex(1, val) {
		t.Error("repeat merge reported change")
	}
	if s.AtomicOrVertex(1, []uint64{0, 0}) {
		t.Error("zero merge reported change")
	}
	if !s.AtomicOrVertex(1, []uint64{0b101, 1}) {
		t.Error("merge adding a new word reported no change")
	}
}

func TestAtomicOrVertexConcurrent(t *testing.T) {
	const (
		n       = 64
		workers = 8
		rounds  = 200
	)
	s := NewState(n, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]uint64, 2)
			for r := 0; r < rounds; r++ {
				for v := 0; v < n; v++ {
					val[0] = 1 << uint(w)
					val[1] = 1 << uint(w)
					s.AtomicOrVertex(v, val)
				}
			}
		}(w)
	}
	wg.Wait()
	for v := 0; v < n; v++ {
		if got := s.Count(v); got != 2*workers {
			t.Fatalf("vertex %d: %d bits set, want %d (lost updates)", v, got, 2*workers)
		}
	}
}

func TestFullMask(t *testing.T) {
	s := NewState(1, 2)
	cases := []struct {
		k    int
		want []uint64
	}{
		{0, []uint64{0, 0}},
		{1, []uint64{1, 0}},
		{64, []uint64{^uint64(0), 0}},
		{65, []uint64{^uint64(0), 1}},
		{128, []uint64{^uint64(0), ^uint64(0)}},
	}
	for _, c := range cases {
		got := s.FullMask(c.k)
		if len(got) != len(c.want) {
			t.Fatalf("FullMask(%d) length %d", c.k, len(got))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("FullMask(%d)[%d] = %#x, want %#x", c.k, i, got[i], c.want[i])
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FullMask(129) on 2-word state did not panic")
			}
		}()
		s.FullMask(129)
	}()
}

// Property: Set followed by Get is true for arbitrary in-range coordinates,
// and does not disturb other bits.
func TestQuickSetGet(t *testing.T) {
	const n, words = 37, 3
	f := func(rawV, rawI uint16, other uint16) bool {
		v := int(rawV) % n
		i := int(rawI) % (words * 64)
		ov := int(other>>8) % n
		oi := int(other&0xff) % (words * 64)
		s := NewState(n, words)
		s.Set(ov, oi)
		s.Set(v, i)
		if !s.Get(v, i) || !s.Get(ov, oi) {
			return false
		}
		s.Clear(v, i)
		if s.Get(v, i) {
			return false
		}
		// The other bit survives unless it is the same coordinate.
		return (ov == v && oi == i) || s.Get(ov, oi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AtomicOrVertex is equivalent to sequential word-wise OR.
func TestQuickAtomicOrMatchesOr(t *testing.T) {
	f := func(init, add [2]uint64) bool {
		a := NewState(1, 2)
		b := NewState(1, 2)
		a.Row(0)[0], a.Row(0)[1] = init[0], init[1]
		b.Row(0)[0], b.Row(0)[1] = init[0], init[1]
		changed := a.AtomicOrVertex(0, add[:])
		b.Row(0)[0] |= add[0]
		b.Row(0)[1] |= add[1]
		if a.Row(0)[0] != b.Row(0)[0] || a.Row(0)[1] != b.Row(0)[1] {
			return false
		}
		wantChanged := (init[0]|add[0]) != init[0] || (init[1]|add[1]) != init[1]
		return changed == wantChanged
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ZeroRange clears exactly [lo, hi).
func TestQuickZeroRange(t *testing.T) {
	const n = 200
	f := func(rawLo, rawHi uint16) bool {
		lo := int(rawLo) % (n + 1)
		hi := int(rawHi) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		s := NewState(n, 1)
		for v := 0; v < n; v++ {
			s.Set(v, v%64)
		}
		s.ZeroRange(lo, hi)
		for v := 0; v < n; v++ {
			inRange := v >= lo && v < hi
			if s.Any(v) == inRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	s := NewState(100, 2)
	if got := s.MemoryBytes(); got != 100*2*8 {
		t.Errorf("MemoryBytes = %d, want %d", got, 100*2*8)
	}
}

func BenchmarkAtomicOrVertex(b *testing.B) {
	s := NewState(1<<16, 1)
	val := []uint64{rand.Uint64()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AtomicOrVertex(i&0xffff, val)
	}
}
