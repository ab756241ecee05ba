package numa

import "testing"

func TestAlignedRanges(t *testing.T) {
	cases := []struct {
		n, parts, stride int
	}{
		{1000, 4, 64}, {1000, 1, 64}, {64, 4, 64}, {10, 4, 64},
		{0, 4, 64}, {1 << 16, 3, 64}, {513, 2, 512}, {7, 0, 0},
		{512 * 40, 2, 512}, {512 * 40, 4, 512}, {1 << 15, 10, 512},
	}
	for _, c := range cases {
		b := AlignedRanges(c.n, c.parts, c.stride)
		parts, stride := c.parts, c.stride
		if parts < 1 {
			parts = 1
		}
		if stride < 1 {
			stride = 1
		}
		if len(b) != parts+1 {
			t.Fatalf("AlignedRanges(%d,%d,%d): %d boundaries, want %d", c.n, c.parts, c.stride, len(b), parts+1)
		}
		if b[0] != 0 || b[parts] != c.n {
			t.Fatalf("AlignedRanges(%d,%d,%d) = %v: must span [0, n]", c.n, c.parts, c.stride, b)
		}
		for i := 1; i <= parts; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("AlignedRanges(%d,%d,%d) = %v: boundary %d decreases", c.n, c.parts, c.stride, b, i)
			}
			if b[i] != c.n && b[i]%stride != 0 {
				t.Fatalf("AlignedRanges(%d,%d,%d) = %v: interior boundary %d not stride-aligned", c.n, c.parts, c.stride, b, b[i])
			}
		}
	}
}

// pagesPerRegion counts the 512-element pages each region owns when
// [0, n) is split at page borders over one part per worker and worker w
// sits in region regionOf[w].
func pagesPerRegion(n int, regionOf []int, regions int) []int {
	const page = 512
	b := AlignedRanges(n, len(regionOf), page)
	counts := make([]int, regions)
	for w, r := range regionOf {
		counts[r] += (b[w+1] - b[w]) / page
	}
	return counts
}

func TestPageMapProportionalShare(t *testing.T) {
	// The paper's placement rule (Section 4.4): a region's memory share
	// is proportional to its thread share. Two regions of two workers
	// each split 40 pages evenly.
	counts := pagesPerRegion(512*40, []int{0, 0, 1, 1}, 2)
	if counts[0] != 20 || counts[1] != 20 {
		t.Errorf("page counts = %v, want an even 20/20 split", counts)
	}
	// In general every part that ends before n holds n/parts to within
	// one stride.
	cases := []struct {
		n, parts, stride int
	}{
		{1000, 4, 64}, {1 << 16, 3, 64}, {513, 2, 512},
		{512 * 40, 2, 512}, {512 * 40, 4, 512}, {1 << 15, 10, 512},
	}
	for _, c := range cases {
		b := AlignedRanges(c.n, c.parts, c.stride)
		share := float64(c.n) / float64(c.parts)
		for i := 1; i <= c.parts && b[i] != c.n; i++ {
			if d := float64(b[i]-b[i-1]) - share; d < 0 || d >= float64(c.stride) {
				t.Errorf("AlignedRanges(%d,%d,%d) = %v: part %d holds %d, want within one stride of %.1f",
					c.n, c.parts, c.stride, b, i-1, b[i]-b[i-1], share)
			}
		}
	}
}

func TestProportionalMemoryShareAsymmetric(t *testing.T) {
	// The paper: "If 8 threads are located in NUMA region 0 and 2 threads
	// in region 1, 80% of the memory ... [is] in region 0 and 20% in
	// region 1."
	regionOf := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	counts := pagesPerRegion(512*100, regionOf, 2)
	if counts[0] != 80 || counts[1] != 20 {
		t.Errorf("page counts = %v, want 80/20", counts)
	}
	// Four single-worker regions each hold a quarter of 40 pages.
	counts = pagesPerRegion(512*40, []int{0, 1, 2, 3}, 4)
	for r, c := range counts {
		if c != 10 {
			t.Errorf("region %d holds %d pages, want 10 (proportional share)", r, c)
		}
	}
}
