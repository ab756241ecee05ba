package perf

import "sort"

// Per-scenario samples are summarized by their median (robust to scheduler
// spikes) and spread by the median absolute deviation. The ratio rows
// divide medians.

// median returns the middle value of xs (mean of the two middles for even
// lengths). It does not modify xs. Returns 0 for empty input.
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mad returns the (unscaled) median absolute deviation from the median.
func mad(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	m := median(xs)
	dev := make([]int64, len(xs))
	for i, x := range xs {
		d := x - m
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return median(dev)
}
