package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

func singleTraversal(t *testing.T, tr *obs.Tracer) []obs.IterationRecord {
	t.Helper()
	snap := tr.Snapshot()
	if len(snap.Traversals) != 1 {
		t.Fatalf("got %d traversals, want 1", len(snap.Traversals))
	}
	return snap.Traversals[0].Iterations
}

// TestSMSPBFSIsMSPBFSAtK1 pins the paper's derivation (Section 3.2) as a
// property of the shared level-step driver: a one-source MS-PBFS batch and
// an SMS-PBFS run in either state representation produce identical levels
// and — under Auto — the identical per-iteration sequence of direction,
// direction reason, frontier vertices, updated states and visited count.
func TestSMSPBFSIsMSPBFSAtK1(t *testing.T) {
	kron := gen.Kronecker(gen.Graph500Params(10, 16))
	src := RandomSources(kron, 1, 41)[0]
	base, ov, _ := splitGraphOverlay(900, 3600, 4242)

	cases := []struct {
		name   string
		g      *graph.Graph
		ov     *graph.Overlay
		source int
	}{
		{"static", kron, nil, src},
		{"overlay", base, ov, 7},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := func(tr *obs.Tracer) Options {
					return Options{Workers: workers, BatchWords: 1, Direction: Auto,
						RecordLevels: true, CollectIterStats: true, Tracer: tr, Overlay: tc.ov}
				}
				msTr := obs.NewTracer()
				ms := MSPBFS(tc.g, []int{tc.source}, opt(msTr))
				// Two recorders, one sequence: the IterationStat stream carries
				// direction, frontier and updated; the flight record adds the
				// reason and the visited count.
				wantStats, wantIters := ms.Stats.Iterations, singleTraversal(t, msTr)

				sawBottomUp := false
				for _, st := range wantStats {
					sawBottomUp = sawBottomUp || st.BottomUp
				}
				if !sawBottomUp {
					t.Fatalf("workload never switched bottom-up; the equivalence proved nothing about the switch points")
				}

				for _, repr := range []StateRepr{BitState, ByteState} {
					smsTr := obs.NewTracer()
					sms := SMSPBFS(tc.g, tc.source, repr, opt(smsTr))
					gotStats, gotIters := sms.Stats.Iterations, singleTraversal(t, smsTr)

					levelsEqual(t, "SMS-PBFS/"+repr.String()+" vs MS-PBFS k=1", sms.Levels, ms.Levels[0])
					if sms.VisitedVertices != ms.VisitedStates {
						t.Errorf("%s: visited %d, MS-PBFS %d", repr, sms.VisitedVertices, ms.VisitedStates)
					}
					if len(gotStats) != len(wantStats) || len(gotIters) != len(wantIters) {
						t.Fatalf("%s: %d/%d iterations, MS-PBFS %d/%d", repr,
							len(gotStats), len(gotIters), len(wantStats), len(wantIters))
					}
					for i := range wantStats {
						g, w := gotStats[i], wantStats[i]
						if g.BottomUp != w.BottomUp || g.FrontierVertices != w.FrontierVertices || g.UpdatedStates != w.UpdatedStates {
							t.Errorf("%s iteration %d: (bottomUp %v, frontier %d, updated %d), MS-PBFS (%v, %d, %d)", repr, i+1,
								g.BottomUp, g.FrontierVertices, g.UpdatedStates, w.BottomUp, w.FrontierVertices, w.UpdatedStates)
						}
						gi, wi := gotIters[i], wantIters[i]
						if gi.Reason != wi.Reason || gi.Visited != wi.Visited {
							t.Errorf("%s iteration %d: (reason %q, visited %d), MS-PBFS (%q, %d)", repr, i+1,
								gi.Reason, gi.Visited, wi.Reason, wi.Visited)
						}
					}
				}
			})
		}
	}
}
