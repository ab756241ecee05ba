package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileWantsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		enough bool
	}{
		{100, 0.90, 90, true},   // ranks 91..100 lie beyond: exactly ten
		{99, 0.90, 90, false},   // nine beyond
		{1000, 0.99, 990, true}, // ten beyond
		{999, 0.99, 990, false},
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, enough := percentile(seq(c.n), c.q)
		if got != c.want || enough != c.enough {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, enough, c.want, c.enough)
		}
	}
	if v, enough := percentile(nil, 0.5); v != 0 || enough {
		t.Errorf("percentile(nil) = %v, %v; want 0, false", v, enough)
	}
}

func TestWindowedReportsMedianOfWindows(t *testing.T) {
	var w windowed
	// One window hit by a noisy neighbour must not move the reported value.
	for _, v := range []float64{6.4, 6.6, 10.1, 41.0, 6.3} {
		w.add(v, true)
	}
	if got := w.median(); got != 6.6 {
		t.Errorf("median of windows = %v, want 6.6", got)
	}
	if lo, hi := w.minmax(); lo != 6.3 || hi != 41.0 {
		t.Errorf("minmax = %v, %v; want 6.3, 41", lo, hi)
	}
	if w.thin {
		t.Error("thin set though every window had enough samples")
	}
	w.add(7, false)
	if !w.thin {
		t.Error("thin not set by a window with too few samples beyond the percentile")
	}
	if got := w.median(); got != 6.8 {
		t.Errorf("median of six windows = %v, want 6.8", got)
	}
}
