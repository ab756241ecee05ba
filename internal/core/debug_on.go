//go:build bfsdebug

package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// debugInvariants enables the invariant layer: every parallel BFS iteration
// cross-checks its shared state against the per-worker counters, and every
// recorded level array is compared with the sequential reference BFS. A
// violation panics with a description of the broken invariant — the point is
// to turn a silently corrupted traversal (the failure mode of a missed
// atomic in the CAS-OR protocol) into an immediate, attributable crash.
//
// The checks cost O(n * stride) per iteration plus one reference BFS per
// recorded source, so this build tag is for tests and bug hunts, never for
// benchmarks.
const debugInvariants = true

// debugCheckBatchIteration validates one MS-PBFS iteration:
//
//	next ⊆ seen            (every newly discovered state was recorded as seen)
//	|next| == updated      (the buffer holds exactly the states the workers counted)
//	|seen| == prev+updated (seen only ever grows, by exactly the counted amount)
//
// It returns the new seen population so the caller can thread it into the
// next iteration's check.
func debugCheckBatchIteration(seen, next *bitset.State, prevSeen, updated int64, algo string, depth int32) int64 {
	sw, nw := seen.Words(), next.Words()
	var nextCount int64
	for i := range nw {
		if stray := nw[i] &^ sw[i]; stray != 0 {
			panic(fmt.Sprintf("bfsdebug: %s depth %d: next has bits not in seen (word %d, stray %#x): frontier/seen monotonicity violated",
				algo, depth, i, stray))
		}
		nextCount += int64(onesCount(nw[i]))
	}
	if nextCount != updated {
		panic(fmt.Sprintf("bfsdebug: %s depth %d: next holds %d states but workers counted %d updates",
			algo, depth, nextCount, updated))
	}
	seenCount := int64(seen.CountAll())
	if seenCount != prevSeen+updated {
		panic(fmt.Sprintf("bfsdebug: %s depth %d: seen population %d, want prev %d + updated %d = %d (lost or duplicated discovery)",
			algo, depth, seenCount, prevSeen, updated, prevSeen+updated))
	}
	return seenCount
}

// debugCheckSetIteration is debugCheckBatchIteration for the single-source
// SMS-PBFS state (bit or byte per vertex).
func debugCheckSetIteration(seen, next *stateSet, prevSeen, updated int64, algo string, depth int32) int64 {
	var nextCount int64
	for i, w := range next.words {
		if stray := w &^ seen.words[i]; stray != 0 {
			panic(fmt.Sprintf("bfsdebug: %s depth %d: vertex %d is in next but not seen: frontier/seen monotonicity violated",
				algo, depth, i<<next.shift+trailingZeros64(stray)>>next.lg))
		}
		nextCount += int64(onesCount(w))
	}
	if nextCount != updated {
		panic(fmt.Sprintf("bfsdebug: %s depth %d: next holds %d vertices but workers counted %d updates",
			algo, depth, nextCount, updated))
	}
	seenCount := int64(seen.Count())
	if seenCount != prevSeen+updated {
		panic(fmt.Sprintf("bfsdebug: %s depth %d: seen population %d, want prev %d + updated %d = %d (lost or duplicated discovery)",
			algo, depth, seenCount, prevSeen, updated, prevSeen+updated))
	}
	return seenCount
}

// debugCheckBorrowedClean asserts the arena's scrub-on-borrow contract: an
// artifact handed out by the Engine must carry zero set bits, no matter how
// dirty (or deliberately poisoned) it was when returned. population is the
// artifact's post-scrub set-bit count.
func debugCheckBorrowedClean(kind string, population int) {
	if population != 0 {
		panic(fmt.Sprintf("bfsdebug: engine handed out a dirty %s (%d set bits survived the scrub): arena hygiene violated",
			kind, population))
	}
}

// debugCheckLevels compares a recorded level array against the sequential
// reference BFS from the same source, over the same (CSR + overlay) view.
func debugCheckLevels(g *graph.Graph, ov *graph.Overlay, source int, levels []int32, algo string) {
	ref := ReferenceLevelsOverlay(g, ov, source)
	if len(ref) != len(levels) {
		panic(fmt.Sprintf("bfsdebug: %s source %d: level array length %d, reference %d",
			algo, source, len(levels), len(ref)))
	}
	for v := range ref {
		if levels[v] != ref[v] {
			panic(fmt.Sprintf("bfsdebug: %s source %d: distance of vertex %d is %d, reference BFS says %d",
				algo, source, v, levels[v], ref[v]))
		}
	}
}
