package main

import (
	"math"
	"sort"
)

// beyond is the least number of samples that must lie past a percentile
// before the benchmark reports it (choosing-metrics guide, section 1).
const beyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether at least `beyond` samples lie past it. xs is sorted in
// place. An empty slice yields (0, false).
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return xs[rank], n-1-rank >= beyond
}

// median is the plain median of xs (mean of the two middle values for an
// even count). It sorts a copy.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowed is one metric's value in every measured window. The reported
// number is the plain median of the window values, so that one window hit
// by a noisy neighbour does not move it.
type windowed struct {
	vals []float64
	// thin is set when some window had fewer than `beyond` samples past
	// the percentile this metric reports.
	thin bool
}

func (w *windowed) add(v float64, enough bool) {
	w.vals = append(w.vals, v)
	if !enough {
		w.thin = true
	}
}

func (w windowed) median() float64 { return median(w.vals) }

func (w windowed) minmax() (lo, hi float64) {
	if len(w.vals) == 0 {
		return 0, 0
	}
	lo, hi = w.vals[0], w.vals[0]
	for _, v := range w.vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// spread is (max - min) / median of the window values, the harness's own
// steadiness figure.
func (w windowed) spread() float64 {
	m := w.median()
	if m == 0 {
		return 0
	}
	lo, hi := w.minmax()
	return (hi - lo) / m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a / b with 0 for an empty base, so idle layers report 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
