package perf

import "testing"

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{nil, 0},
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 3, 2}, 2}, // mean of middles
		{[]int64{10, 10, 10, 1000}, 10},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// median must not mutate its input.
	in := []int64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median mutated its input: %v", in)
	}
}

func TestMAD(t *testing.T) {
	if got := mad([]int64{1, 1, 1, 1}); got != 0 {
		t.Errorf("mad of constants = %d, want 0", got)
	}
	// median 5, |devs| = {4, 1, 0, 1, 4} -> median 1
	if got := mad([]int64{1, 4, 5, 6, 9}); got != 1 {
		t.Errorf("mad = %d, want 1", got)
	}
	// One wild outlier barely moves the MAD — the robustness the protocol
	// relies on.
	if got := mad([]int64{1, 4, 5, 6, 1000000}); got != 1 {
		t.Errorf("mad with outlier = %d, want 1", got)
	}
}
