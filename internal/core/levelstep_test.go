package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

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
				opt := Options{Workers: workers, BatchWords: 1, Direction: Auto,
					RecordLevels: true, CollectIterStats: true, Overlay: tc.ov}
				ms := MSPBFS(tc.g, []int{tc.source}, opt)
				want := ms.Stats.Iterations

				sawBottomUp := false
				for _, it := range want {
					sawBottomUp = sawBottomUp || it.BottomUp
				}
				if !sawBottomUp {
					t.Fatalf("workload never switched bottom-up; the equivalence proved nothing about the switch points")
				}

				for _, repr := range []StateRepr{BitState, ByteState} {
					sms := SMSPBFS(tc.g, tc.source, repr, opt)
					got := sms.Stats.Iterations

					CheckLevels(t, "SMS-PBFS/"+repr.String()+" vs MS-PBFS k=1", sms.Levels, ms.Levels[0])
					if sms.VisitedVertices != ms.VisitedStates {
						t.Errorf("%s: visited %d, MS-PBFS %d", repr, sms.VisitedVertices, ms.VisitedStates)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d iterations, MS-PBFS %d", repr, len(got), len(want))
					}
					for i := range want {
						g, w := got[i], want[i]
						if g.BottomUp != w.BottomUp || g.Reason != w.Reason || g.FrontierVertices != w.FrontierVertices ||
							g.UpdatedStates != w.UpdatedStates || g.Visited != w.Visited {
							t.Errorf("%s iteration %d: (bottomUp %v, reason %q, frontier %d, updated %d, visited %d), MS-PBFS (%v, %q, %d, %d, %d)",
								repr, i+1, g.BottomUp, g.Reason, g.FrontierVertices, g.UpdatedStates, g.Visited,
								w.BottomUp, w.Reason, w.FrontierVertices, w.UpdatedStates, w.Visited)
						}
					}
				}
			})
		}
	}
}
