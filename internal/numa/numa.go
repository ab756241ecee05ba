// Package numa holds the placement arithmetic of the paper's Section 4.4:
// the BFS arrays are interleaved across NUMA regions at exactly the
// task-range borders, so a page (or, for the cluster's vertex partition, a
// bitset word) never straddles two owners. Go cannot pin threads or place
// pages, so nothing here touches memory; the kernels use AlignedRanges to
// lay out their stripe-affine task queues, and internal/bench models the
// resulting page locality from a traversal's flight record (bfsbench -exp
// numa). See DESIGN.md §3 for the substitution rationale.
package numa

// AlignedRanges splits [0, n) into parts contiguous ranges of near-equal
// size whose borders are aligned to stride, and returns the parts+1 range
// boundaries. Ownership changes only at aligned borders, so no aligned
// unit (a page of the kernels' state, a bitset word of the cluster's vertex
// partition) ever straddles two owners, and every non-tail range holds
// n/parts rounded up to the next stride: memory share follows thread share.
// Trailing ranges may be empty when n is small relative to parts*stride.
func AlignedRanges(n, parts, stride int) []int {
	if parts < 1 {
		parts = 1
	}
	if stride < 1 {
		stride = 1
	}
	per := (n + parts - 1) / parts
	if rem := per % stride; rem != 0 {
		per += stride - rem
	}
	starts := make([]int, parts+1)
	for i := 1; i <= parts; i++ {
		s := i * per
		if s > n {
			s = n
		}
		starts[i] = s
	}
	return starts
}
