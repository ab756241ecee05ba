package obs

import (
	"slices"
	"testing"
)

// TestRingKeepsNewest: a ring keeps its newest values oldest-first and
// counts every eviction, across several wraps.
func TestRingKeepsNewest(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Copy(); got != nil {
		t.Fatalf("empty ring copies %v, want nil", got)
	}
	for v := 1; v <= 8; v++ {
		r.Push(v)
		lo := max(1, v-2)
		want := make([]int, 0, 3)
		for x := lo; x <= v; x++ {
			want = append(want, x)
		}
		if got := r.Copy(); !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: %v, want %v", v, got, want)
		}
		if got, want := r.Dropped(), uint64(lo-1); got != want {
			t.Fatalf("after %d pushes: %d dropped, want %d", v, got, want)
		}
	}
}
