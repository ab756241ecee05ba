package core

// Worker-owned frontier substrate tests: the scatter → apply protocol
// (inbox.go) must write every queued segment exactly once under the race
// detector, size its inboxes as bounded, and never apply a stale entry.
// Its answers under every worker count, direction, width, split, state
// representation, labeling and overlay are the oracle grid's
// (grid_test.go).

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestSegmentedMergeRaceStress drives the scatter → apply hand-off hard:
// many workers, wide batches, repeated rounds so interleavings vary. Under
// -race this is the test that gives the detector its shots at the phase
// barrier between the plain-store scatter and the owner-striped apply;
// under the normal build the reference comparison catches any segment lost
// or written into a foreign stripe.
func TestSegmentedMergeRaceStress(t *testing.T) {
	g := gen.Uniform(3000, 7, 5)
	sources := RandomSources(g, 128, 23)
	want := make([][]int32, len(sources))
	for i, src := range sources {
		want[i] = ReferenceLevels(g, src)
	}

	for round := 0; round < 6; round++ {
		res := MSPBFS(g, sources, Options{Workers: 8, BatchWords: 2, SplitSize: 512, RecordLevels: true})
		for i, src := range res.Sources {
			CheckLevels(t, fmt.Sprintf("merge stress round %d src=%d", round, src), res.Levels[i], want[i])
		}
	}
	for round := 0; round < 6; round++ {
		for _, repr := range []StateRepr{BitState, ByteState} {
			res := SMSPBFS(g, sources[0], repr, Options{Workers: 8, SplitSize: 512, RecordLevels: true})
			CheckLevels(t, fmt.Sprintf("sms merge stress round %d %s", round, repr), res.Levels, want[0])
		}
	}
}

// dirInputRecords runs an Auto MS-PBFS and returns its per-iteration
// records carrying the decideDirection input vector.
func dirInputRecords(g *graph.Graph, sources []int, ov *graph.Overlay) []obs.IterationRecord {
	return MSPBFS(g, sources, Options{
		Workers:          3,
		BatchWords:       1,
		Direction:        Auto,
		CollectIterStats: true,
		Overlay:          ov,
	}).Stats.Iterations
}

// TestDirectionInputsFusedVsCompacted pins the direction heuristic's full
// input vector — frontier states, frontier edges, unexplored edges —
// between a fused (CSR + overlay) run and the equivalent compacted-CSR
// run, iteration by iteration. This is the regression test for the
// overlay double-counting hazard: frontier degrees must count each CSR
// edge and each overlay arc exactly once, and the unexplored-edge budget
// must be seeded with both layers' arcs exactly once, or the alpha/beta
// switch points drift between a dynamic graph and its compaction.
func TestDirectionInputsFusedVsCompacted(t *testing.T) {
	base, ov, compacted := splitGraphOverlay(900, 3600, 4242)
	sources := []int{0, 7, 99, 500, 899, 123, 321, 650}

	fused := dirInputRecords(base, sources, ov)
	plain := dirInputRecords(compacted, sources, nil)

	if len(fused) != len(plain) {
		t.Fatalf("iteration counts diverge: fused %d, compacted %d", len(fused), len(plain))
	}
	sawBottomUp := false
	for i := range fused {
		f, p := fused[i], plain[i]
		if f.BottomUp != p.BottomUp || f.Reason != p.Reason {
			t.Errorf("iteration %d: direction %v(%q) fused vs %v(%q) compacted",
				i+1, f.BottomUp, f.Reason, p.BottomUp, p.Reason)
		}
		if f.FrontierVertices != p.FrontierVertices || f.FrontierEdges != p.FrontierEdges ||
			f.UnexploredEdges != p.UnexploredEdges {
			t.Errorf("iteration %d: heuristic inputs diverge: fused (%d,%d,%d) vs compacted (%d,%d,%d)",
				i+1, f.FrontierVertices, f.FrontierEdges, f.UnexploredEdges,
				p.FrontierVertices, p.FrontierEdges, p.UnexploredEdges)
		}
		sawBottomUp = sawBottomUp || f.BottomUp
	}
	if !sawBottomUp {
		t.Fatalf("workload never switched bottom-up; the equivalence proved nothing about the switch points")
	}
}

// TestInboxBytesBound: after a TopDownOnly MS-PBFS run at 8 workers on a
// scale-12 graph — every level scatters, the densest ones included — the
// parked shell holds its three states plus inboxes within half of the
// seven n-word shadow slabs the inboxes replaced. A level queues at most
// Σ min(degree, 7) entries, but each inbox keeps the capacity of the most
// its worker queued in any level; with stealing on, which worker scans what
// changes from level to level and run to run, so the test pins the
// schedule (stealing off) to make the byte count exact.
func TestInboxBytesBound(t *testing.T) {
	const workers = 8
	g := gen.Kronecker(gen.Graph500Params(12, 6))
	eng := NewEngine()
	defer eng.Close()
	MSPBFS(g, RandomSources(g, 64, 17), Options{Workers: workers, Direction: TopDownOnly, Engine: eng, DisableStealing: true})

	n := int64(g.NumVertices())
	states, slabs := 3*n*8, (workers-1)*n*8
	got := eng.Stats().FreeBytes
	t.Logf("shell %d B: states %d B, half the slabs %d B", got, states, slabs/2)
	if got > states+slabs/2 {
		t.Errorf("shell holds %d B, want <= %d B states + %d B (half the slabs)", got, states, slabs/2)
	}
	if got <= states {
		t.Errorf("shell holds %d B, no more than its %d B states: the inboxes were never used", got, states)
	}
}

// TestInboxScrubbedAtRunStart: a run that ended inside a scatter → apply
// window (a panic in a phase body) leaves entries queued; the next run on
// the warm shell must not apply them. SMS-PBFS is the kernel where a stale
// entry would show: its apply marks the queued vertex's neighbors whether
// or not the vertex is in the frontier.
func TestInboxScrubbedAtRunStart(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(10, 6))
	src := RandomSources(g, 1, 3)[0]
	e := NewSMSPBFSEngine(g, BitState, Options{Workers: 4, RecordLevels: true})
	defer e.Close()
	for s := range e.inboxes[1].to {
		for v := 0; v < g.NumVertices(); v += 7 {
			e.inboxes[1].to[s] = append(e.inboxes[1].to[s], graph.VertexID(v))
		}
	}
	CheckLevels(t, "stale inboxes", e.Run(src).Levels, ReferenceLevels(g, src))
}
