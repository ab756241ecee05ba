package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// The race stress tests push the parallel kernels with more workers than
// the correctness suite and verify every recorded distance against the
// sequential reference. They are the core of the `go test -race` suite:
// a lost CAS-OR or a phase-barrier ordering bug shows up either as a race
// report or as a wrong distance. They stay fast enough to keep under
// -short, so CI's race pass always exercises them.

// TestMSPBFSRaceStress runs a wide multi-source batch (128 concurrent
// BFSs over 2 bitset words) with heavy oversubscription.
func TestMSPBFSRaceStress(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 1))
	sources := RandomSources(g, 128, 7)

	res := MSPBFS(g, sources, Options{Workers: 8, BatchWords: 2, SplitSize: 512, RecordLevels: true})
	for i, src := range res.Sources {
		CheckLevels(t, fmt.Sprintf("mspbfs race src=%d", src), res.Levels[i], ReferenceLevels(g, src))
	}
}

// TestSMSPBFSRaceStress runs the single-source kernel in both state
// representations. The byte representation is the interesting one under
// the race detector: eight vertices share each word, so neighboring tasks
// contend on the same memory.
func TestSMSPBFSRaceStress(t *testing.T) {
	g := gen.Uniform(4096, 8, 11)
	want := ReferenceLevels(g, 1)

	for _, repr := range []StateRepr{BitState, ByteState} {
		res := SMSPBFS(g, 1, repr, Options{Workers: 8, SplitSize: 512, RecordLevels: true})
		CheckLevels(t, "smspbfs race "+repr.String(), res.Levels, want)
	}
}

// TestMSPBFSRaceRepeated re-runs a smaller batch many times; interleavings
// differ run to run, so repetition is what gives the race detector its
// shots at the two-phase hand-off between top-down phases.
func TestMSPBFSRaceRepeated(t *testing.T) {
	g := gen.Uniform(1200, 6, 3)
	sources := RandomSources(g, 64, 13)
	want := make([][]int32, len(sources))
	for i, src := range sources {
		want[i] = ReferenceLevels(g, src)
	}

	for round := 0; round < 10; round++ {
		res := MSPBFS(g, sources, Options{Workers: 8, RecordLevels: true})
		for i, src := range res.Sources {
			CheckLevels(t, fmt.Sprintf("round %d src=%d", round, src), res.Levels[i], want[i])
		}
	}
}
