//go:build bfsdebug

package core

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
)

// TestDebugLayerOn pins the debug-build contract.
func TestDebugLayerOn(t *testing.T) {
	if !debugInvariants {
		t.Fatal("debugInvariants must be true under the bfsdebug build tag")
	}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a bfsdebug panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", r, want)
		}
	}()
	fn()
}

// TestBatchIterationChecksFire corrupts MS-PBFS-style state in each of the
// three ways the checker guards against and asserts it panics.
func TestBatchIterationChecksFire(t *testing.T) {
	mkState := func() (seen, next *bitset.State) {
		seen = bitset.NewState(8, 1)
		next = bitset.NewState(8, 1)
		seen.Set(0, 0)
		seen.Set(1, 3)
		next.Set(1, 3)
		return seen, next
	}

	// Consistent state passes and returns the new population.
	seen, next := mkState()
	if got := debugCheckBatchIteration(seen, next, 1, 1, "test", 1); got != 2 {
		t.Fatalf("consistent state: got population %d, want 2", got)
	}

	// A next bit missing from seen is the lost-CAS signature.
	seen, next = mkState()
	next.Set(5, 7) // not mirrored into seen
	mustPanic(t, "monotonicity violated", func() {
		debugCheckBatchIteration(seen, next, 1, 2, "test", 1)
	})

	// next population disagreeing with the workers' update counters.
	seen, next = mkState()
	mustPanic(t, "counted", func() {
		debugCheckBatchIteration(seen, next, 1, 5, "test", 1)
	})

	// seen population jumping by more than the counted updates.
	seen, next = mkState()
	seen.Set(6, 2) // discovery nobody counted
	mustPanic(t, "lost or duplicated discovery", func() {
		debugCheckBatchIteration(seen, next, 1, 1, "test", 1)
	})
}

// TestSetIterationChecksFire does the same for the SMS-PBFS representations.
func TestSetIterationChecksFire(t *testing.T) {
	for _, repr := range []StateRepr{BitState, ByteState} {
		seen := newStateSet(16, repr)
		next := newStateSet(16, repr)
		seen.Set(0)
		seen.Set(3)
		next.Set(3)
		if got := debugCheckSetIteration(&seen, &next, 1, 1, repr.String(), 1); got != 2 {
			t.Fatalf("%s: consistent state: got population %d, want 2", repr, got)
		}
		next.Set(9) // in next but never seen
		mustPanic(t, "vertex 9 is in next but not seen", func() {
			debugCheckSetIteration(&seen, &next, 1, 2, repr.String(), 1)
		})
		seen.Set(9)
		mustPanic(t, "workers counted", func() {
			debugCheckSetIteration(&seen, &next, 2, 1, repr.String(), 1) // next holds 2, 1 counted
		})
	}
}

// TestLevelChecksFire corrupts a recorded distance and asserts the
// reference cross-check catches it.
func TestLevelChecksFire(t *testing.T) {
	g := PathGraph(6)

	levels := ReferenceLevels(g, 0)
	debugCheckLevels(g, nil, 0, levels, "test") // exact copy passes

	levels[4] = 7 // corrupt one distance
	mustPanic(t, "reference BFS says", func() {
		debugCheckLevels(g, nil, 0, levels, "test")
	})
}

// TestInvariantLayerEndToEnd runs the parallel algorithms with the checks
// live; any invariant violation would panic the run.
func TestInvariantLayerEndToEnd(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 1))
	sources := RandomSources(g, 80, 42)

	opt := Options{Workers: 4, BatchWords: 2, RecordLevels: true}
	MSPBFS(g, sources, opt)

	for _, repr := range []StateRepr{BitState, ByteState} {
		SMSPBFS(g, sources[0], repr, Options{Workers: 4, RecordLevels: true})
	}
}
