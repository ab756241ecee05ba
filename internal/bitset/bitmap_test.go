package bitset

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	for _, v := range []int{0, 63, 64, 129} {
		if b.Get(v) {
			t.Fatalf("bit %d set on fresh bitmap", v)
		}
		b.Set(v)
		if !b.Get(v) {
			t.Fatalf("bit %d not set", v)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
}

func TestBitmapAtomicSetReportsChange(t *testing.T) {
	b := NewBitmap(100)
	if !b.AtomicSet(42) {
		t.Error("first AtomicSet reported no change")
	}
	if b.AtomicSet(42) {
		t.Error("second AtomicSet reported change")
	}
	if !b.Get(42) {
		t.Error("bit not set")
	}
}

func TestBitmapAtomicSetConcurrent(t *testing.T) {
	const n = 1 << 12
	b := NewBitmap(n)
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for v := 0; v < n; v++ {
				if b.AtomicSet(v) {
					local++
				}
			}
			mu.Lock()
			wins += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if wins != n {
		t.Errorf("total successful AtomicSets = %d, want %d (exactly-once violated)", wins, n)
	}
	if b.Count() != n {
		t.Errorf("Count = %d, want %d", b.Count(), n)
	}
}

func TestBitmapNextSetBit(t *testing.T) {
	b := NewBitmap(200)
	if b.NextSetBit(0) != -1 {
		t.Error("NextSetBit on empty bitmap")
	}
	for _, v := range []int{3, 64, 65, 199} {
		b.Set(v)
	}
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 65}, {66, 199}, {199, 199},
		{-5, 3}, {200, -1}, {1000, -1},
	}
	for _, c := range cases {
		if got := b.NextSetBit(c.from); got != c.want {
			t.Errorf("NextSetBit(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestQuickBitmapZeroRange(t *testing.T) {
	const n = 300
	f := func(rawLo, rawHi uint16) bool {
		lo := int(rawLo) % (n + 1)
		hi := int(rawHi) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		b := NewBitmap(n)
		for v := 0; v < n; v++ {
			b.Set(v)
		}
		b.ZeroRange(lo, hi)
		for v := 0; v < n; v++ {
			want := v < lo || v >= hi
			if b.Get(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
