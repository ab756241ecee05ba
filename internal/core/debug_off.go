//go:build !bfsdebug

package core

import (
	"repro/internal/bitset"
	"repro/internal/graph"
)

// debugInvariants gates the bfsdebug invariant layer. In the default build
// it is a false constant, so every `if debugInvariants { ... }` block — and
// the O(n)-per-iteration checks behind it — is eliminated by the compiler.
// Build with `-tags bfsdebug` (or `make debug`) to enable the checks; see
// docs/ANALYSIS.md.
const debugInvariants = false

// debugCheckBatchIteration is a no-op stub; the bfsdebug build cross-checks
// one MS-PBFS iteration's seen/next state against the per-worker counters.
func debugCheckBatchIteration(seen, next *bitset.State, prevSeen, updated int64, algo string, depth int32) int64 {
	return 0
}

// debugCheckSetIteration is a no-op stub; the bfsdebug build cross-checks
// one SMS-PBFS iteration's seen/next state against the per-worker counters.
func debugCheckSetIteration(seen, next *stateSet, prevSeen, updated int64, algo string, depth int32) int64 {
	return 0
}

// debugCheckBorrowedClean is a no-op stub; the bfsdebug build asserts the
// engine arena's scrub-on-borrow contract.
func debugCheckBorrowedClean(kind string, population int) {}

// debugCheckLevels is a no-op stub; the bfsdebug build compares a recorded
// level array against the sequential reference BFS.
func debugCheckLevels(g *graph.Graph, ov *graph.Overlay, source int, levels []int32, algo string) {}
