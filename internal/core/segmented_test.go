package core

// Worker-owned frontier substrate tests: the scatter → apply protocol
// (inbox.go) must be observationally identical to the textbook oracle
// under every worker count, direction policy, batch width, state
// representation, relabeling scheme and overlay configuration — and its
// barrier apply must write every queued segment exactly once under the
// race detector.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
)

// reached counts the vertices a level row records as visited.
func reached(levels []int32) int64 {
	var c int64
	for _, l := range levels {
		if l != NoLevel {
			c++
		}
	}
	return c
}

// overlayEveryThird moves every third edge of g into an overlay, so many
// vertices carry both a CSR row and an overlay list, often reaching the
// same stripe.
func overlayEveryThird(g *graph.Graph) (*graph.Graph, *graph.Overlay) {
	var kept, moved []graph.Edge
	for i, e := range g.Edges() {
		if i%3 == 0 {
			moved = append(moved, e)
		} else {
			kept = append(kept, e)
		}
	}
	n := g.NumVertices()
	return graph.FromEdges(n, kept), graph.NewOverlay(n).WithEdges(moved, nil)
}

// TestSegmentedMatchesReference runs MS-PBFS and SMS-PBFS on the
// worker-owned substrate and requires levels and visit counts identical to
// the reference BFS. Workers>1 is the interesting case: it is the only
// configuration where rows are cut at stripe borders and the inboxes and
// the barrier apply actually run; an entry lost in the apply shows up as a
// missing level, one applied twice as a double-counted scan. SplitSize is a
// dimension because every phase — bottom-up included — is cut by it: 4096
// vertices are eight tasks at 512, two at 2048 and one at 65 536, and a
// vertex's level must not depend on which task holds it. BatchWords 2 runs
// the wide-row spread, and the overlay view runs the cut over two lists per
// vertex, whose inbox entries must not repeat.
func TestSegmentedMatchesReference(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(12, 6))
	base, ov := overlayEveryThird(g)
	sources := RandomSources(g, 128, 17)
	want := make([][]int32, len(sources))
	var wantStates int64
	for i, src := range sources {
		want[i] = ReferenceLevels(g, src)
		wantStates += reached(want[i])
	}
	views := []struct {
		name string
		g    *graph.Graph
		ov   *graph.Overlay
	}{{"csr", g, nil}, {"overlay", base, ov}}

	for _, workers := range []int{1, 3, 8} {
		for _, dir := range []Direction{Auto, TopDownOnly, BottomUpOnly} {
			t.Run(fmt.Sprintf("workers=%d/dir=%d", workers, dir), func(t *testing.T) {
				for _, split := range []int{512, 2048, 65536} {
					for _, words := range []int{1, 2} {
						for _, view := range views {
							ctx := fmt.Sprintf("split=%d words=%d %s", split, words, view.name)
							opt := Options{Workers: workers, BatchWords: words, SplitSize: split, Direction: dir,
								RecordLevels: true, Overlay: view.ov}

							ms := MSPBFS(view.g, sources, opt)
							if ms.VisitedStates != wantStates {
								t.Fatalf("%s: MS-PBFS visited %d states, reference %d", ctx, ms.VisitedStates, wantStates)
							}
							for i, src := range sources {
								levelsEqual(t, fmt.Sprintf("%s MS-PBFS src=%d", ctx, src), ms.Levels[i], want[i])
							}
							if words > 1 {
								continue // SMS-PBFS has no batch width
							}
							for _, repr := range []StateRepr{BitState, ByteState} {
								sms := SMSPBFS(view.g, sources[0], repr, opt)
								if got, ref := sms.VisitedVertices, reached(want[0]); got != ref {
									t.Fatalf("%s: SMS-PBFS/%s visited %d, reference %d", ctx, repr, got, ref)
								}
								levelsEqual(t, fmt.Sprintf("%s SMS-PBFS/%s", ctx, repr), sms.Levels, want[0])
							}
						}
					}
				}
			})
		}
	}
}

// TestSegmentedOverlayMatchesCompacted repeats the equality over the fused
// overlay path: the scatter cuts overlay lists at the same stripe borders
// and queues them in the same inboxes, so the overlay x inbox product gets
// its own equivalence run against the compacted graph and the
// overlay-aware reference.
func TestSegmentedOverlayMatchesCompacted(t *testing.T) {
	base, ov, compacted := splitGraphOverlay(700, 2200, 99)
	sources := []int{0, 3, 99, 500, 699, 123, 321, 7}

	opt := Options{Workers: 4, BatchWords: 1, RecordLevels: true, Overlay: ov}
	plain := Options{Workers: 4, BatchWords: 1, RecordLevels: true}

	fused := MSPBFS(base, sources, opt)
	want := MSPBFS(compacted, sources, plain)
	if fused.VisitedStates != want.VisitedStates {
		t.Fatalf("fused MS-PBFS visited %d states, compacted %d", fused.VisitedStates, want.VisitedStates)
	}
	for i, src := range sources {
		levelsEqual(t, fmt.Sprintf("fused vs compacted MS-PBFS src=%d", src), fused.Levels[i], want.Levels[i])
		levelsEqual(t, fmt.Sprintf("fused MS-PBFS vs reference src=%d", src), fused.Levels[i], ReferenceLevelsOverlay(base, ov, src))
	}
	for _, repr := range []StateRepr{BitState, ByteState} {
		sms := SMSPBFS(base, sources[0], repr, opt)
		levelsEqual(t, fmt.Sprintf("fused SMS-PBFS/%s vs compacted", repr), sms.Levels, want.Levels[0])
	}
}

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
			levelsEqual(t, fmt.Sprintf("merge stress round %d src=%d", round, src), res.Levels[i], want[i])
		}
	}
	for round := 0; round < 6; round++ {
		for _, repr := range []StateRepr{BitState, ByteState} {
			res := SMSPBFS(g, sources[0], repr, Options{Workers: 8, SplitSize: 512, RecordLevels: true})
			levelsEqual(t, fmt.Sprintf("sms merge stress round %d %s", round, repr), res.Levels, want[0])
		}
	}
}

// TestSegmentedRelabelingMetamorphic re-runs the relabeling metamorphic
// property over the substrate kernels specifically: for every labeling
// scheme, MS-PBFS and SMS-PBFS distances must survive the permutation.
// Relabeling changes which worker stripe owns which vertex, so this walks
// the scatter → apply protocol through entirely different ownership layouts
// of the same traversal.
func TestSegmentedRelabelingMetamorphic(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 12))
	src := RandomSources(g, 1, 31)[0]
	want := ReferenceLevels(g, src)

	for _, scheme := range []label.Scheme{label.Random, label.DegreeOrdered, label.Striped} {
		relabeled, perm := label.Apply(g, scheme, label.Params{Workers: 4, TaskSize: 512, Seed: 19})
		opt := Options{Workers: 4, BatchWords: 1, RecordLevels: true}

		ms := MSPBFS(relabeled, []int{int(perm[src])}, opt)
		sms := SMSPBFS(relabeled, int(perm[src]), BitState, opt)
		for v := range want {
			if ms.Levels[0][perm[v]] != want[v] {
				t.Fatalf("%v labeling: MS-PBFS vertex %d level %d, want %d",
					scheme, v, ms.Levels[0][perm[v]], want[v])
			}
			if sms.Levels[perm[v]] != want[v] {
				t.Fatalf("%v labeling: SMS-PBFS vertex %d level %d, want %d",
					scheme, v, sms.Levels[perm[v]], want[v])
			}
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
	levelsEqual(t, "stale inboxes", e.Run(src).Levels, ReferenceLevels(g, src))
}
