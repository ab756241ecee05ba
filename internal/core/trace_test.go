package core

// Flight-record acceptance tests: the tracing layer must report the
// direction heuristic's *actual* decisions, not a reconstruction — the
// per-iteration direction sequence in the trace is asserted against an
// untraced control run and against the forced-direction runs on the
// oracle grid's direction-slice graphs (grid_test.go) — and each level's
// one record must add up (TestIterationRecordSums).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// tracedAuto runs one single-batch MS-PBFS under Auto with both the
// tracer and iteration stats on, returning the result and the traversal
// flight record.
func tracedAuto(t *testing.T, g *graph.Graph, workers int) (*MultiResult, obs.Traversal) {
	t.Helper()
	sources := RandomSources(g, 64, 29)
	tr := obs.NewTracer()
	res := MSPBFS(g, sources, Options{
		Workers:          workers,
		BatchWords:       1,
		Direction:        Auto,
		CollectIterStats: true,
		Tracer:           tr,
	})
	snap := tr.Snapshot()
	if len(snap.Traversals) != 1 {
		t.Fatalf("got %d traversals for one 64-source batch, want 1", len(snap.Traversals))
	}
	return res, snap.Traversals[0]
}

// checkReasonConsistency verifies each record's reason is the one the
// shared decideDirection policy attaches to that direction transition:
// switches carry the alpha/beta predicate that fired, holds carry the
// steady reason. prev is the direction before the first recorded
// iteration (false: Auto starts top-down).
func checkReasonConsistency(t *testing.T, iters []obs.IterationRecord, ctx string) {
	t.Helper()
	prev := false
	for i, it := range iters {
		var want string
		switch {
		case it.BottomUp && !prev:
			want = dirSwitchBottomUp
		case !it.BottomUp && prev:
			want = dirSwitchTopDown
		case it.BottomUp:
			want = dirStayBottomUp
		default:
			want = dirStayTopDown
		}
		if it.Reason != want {
			t.Errorf("%s: iteration %d (%s after %v): reason %q, want %q",
				ctx, i+1, it.Direction(), prev, it.Reason, want)
		}
		prev = it.BottomUp
	}
}

// directionGraphs are the two shapes the trace tests follow Auto on.
func directionGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// Dense core: auto mode actually switches to bottom-up here.
		"kron": gen.Kronecker(gen.Graph500Params(10, 3)),
		// Sparse, multi-component, high diameter: auto mostly stays
		// top-down and unreachable vertices stay NoLevel.
		"uniform": gen.Uniform(4000, 3, 13),
	}
}

// TestTraceMatchesIterationStats: the flight record and the run's
// Stats.Iterations describe the same iterations — same count, same
// records — because each level hands one record to both; and that record
// follows Auto's real decisions on every direction-suite graph.
func TestTraceMatchesIterationStats(t *testing.T) {
	for gname, g := range directionGraphs() {
		res, tv := tracedAuto(t, g, 3)
		stats := res.Stats.Iterations
		if tv.Algo != "ms-pbfs" || tv.Sources != 64 {
			t.Errorf("%s: traversal header = %q/%d, want ms-pbfs/64", gname, tv.Algo, tv.Sources)
		}
		if len(tv.Iterations) != len(stats) {
			t.Fatalf("%s: trace has %d iterations, stats have %d",
				gname, len(tv.Iterations), len(stats))
		}
		var lastVisited int64
		for i, it := range tv.Iterations {
			if !reflect.DeepEqual(it, stats[i]) {
				t.Errorf("%s iteration %d: trace %+v != stats %+v", gname, i+1, it, stats[i])
			}
			if it.Iteration != i+1 {
				t.Errorf("%s: record %d numbered %d", gname, i, it.Iteration)
			}
			if it.Visited < lastVisited {
				t.Errorf("%s iteration %d: visited went backwards (%d -> %d)",
					gname, i+1, lastVisited, it.Visited)
			}
			lastVisited = it.Visited
			if len(it.WorkerTasks) != 3 || len(it.WorkerSteals) != 3 {
				t.Errorf("%s iteration %d: per-worker vectors sized %d/%d, want 3/3",
					gname, i+1, len(it.WorkerTasks), len(it.WorkerSteals))
			}
			if it.Tasks() <= 0 {
				t.Errorf("%s iteration %d: no tasks recorded", gname, i+1)
			}
		}
		if lastVisited != res.VisitedStates {
			t.Errorf("%s: final traced visited %d != result %d",
				gname, lastVisited, res.VisitedStates)
		}
		checkReasonConsistency(t, tv.Iterations, gname)
		// The dense Kronecker core is the graph where Auto actually
		// switches; a trace that never saw bottom-up there means the
		// tracer is not wired to the real decision.
		if gname == "kron" {
			sawBottomUp := false
			for _, it := range tv.Iterations {
				sawBottomUp = sawBottomUp || it.BottomUp
			}
			if !sawBottomUp {
				t.Errorf("kron: auto trace never switched to bottom-up")
			}
		}
	}
}

// TestIterationRecordSums: each level builds one record, so the stats a
// run returns and its flight record are the same values, and every
// per-worker vector has one entry per worker and adds up to its total
// exactly. The levels' busy deltas fit inside the run's busy time, which
// also counts the scrubs no level is charged for.
func TestIterationRecordSums(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(12, 3))
	sources := RandomSources(g, 64, 29)
	for _, kernel := range []string{"ms-pbfs", "sms-pbfs/bit", "sms-pbfs/byte"} {
		for _, workers := range []int{1, 3} {
			for _, static := range []bool{false, true} {
				ctx := fmt.Sprintf("%s workers=%d static=%v", kernel, workers, static)
				tr := obs.NewTracer()
				opt := Options{Workers: workers, BatchWords: 1, DisableStealing: static,
					CollectIterStats: true, Tracer: tr}
				var res *MultiResult
				switch kernel {
				case "ms-pbfs":
					res = MSPBFS(g, sources, opt)
				case "sms-pbfs/bit":
					res = SMSPBFSAll(g, sources[:4], BitState, opt)
				case "sms-pbfs/byte":
					res = SMSPBFSAll(g, sources[:4], ByteState, opt)
				}
				var traced []obs.IterationRecord
				for _, tv := range tr.Snapshot().Traversals {
					if tv.Algo != kernel {
						t.Errorf("%s: traversal labeled %q", ctx, tv.Algo)
					}
					traced = append(traced, tv.Iterations...)
				}
				if !reflect.DeepEqual(res.Stats.Iterations, traced) {
					t.Fatalf("%s: Result.Stats.Iterations differs from the flight record", ctx)
				}

				busy := make([]time.Duration, workers)
				updated := int64(res.Stats.Sources)
				for i, it := range res.Stats.Iterations {
					at := fmt.Sprintf("%s record %d (%s)", ctx, i, it.Direction())
					for name, n := range map[string]int{
						"tasks": len(it.WorkerTasks), "steals": len(it.WorkerSteals), "busy": len(it.WorkerBusy),
						"scanned": len(it.WorkerScanned), "updated": len(it.WorkerUpdated), "merge words": len(it.WorkerMergeWords),
					} {
						if n != workers {
							t.Errorf("%s: %d per-worker %s, want %d", at, n, name, workers)
						}
					}
					if s := sumInt64(it.WorkerScanned); s != it.ScannedEdges {
						t.Errorf("%s: Σ WorkerScanned %d != ScannedEdges %d", at, s, it.ScannedEdges)
					}
					if s := sumInt64(it.WorkerUpdated); s != it.UpdatedStates {
						t.Errorf("%s: Σ WorkerUpdated %d != UpdatedStates %d", at, s, it.UpdatedStates)
					}
					if s := sumInt64(it.WorkerMergeWords); s != it.MergeWords {
						t.Errorf("%s: Σ WorkerMergeWords %d != MergeWords %d", at, s, it.MergeWords)
					}
					if !(0 <= it.ScatterSteals && it.ScatterSteals <= it.Steals() && it.Steals() <= it.Tasks()) {
						t.Errorf("%s: scatter steals %d, steals %d, tasks %d not ordered",
							at, it.ScatterSteals, it.Steals(), it.Tasks())
					}
					for w, d := range it.WorkerBusy {
						busy[w] += d
					}
					updated += it.UpdatedStates
				}
				for w := range busy {
					if busy[w] > res.WorkerBusy[w] {
						t.Errorf("%s: worker %d levels busy %v > run busy %v", ctx, w, busy[w], res.WorkerBusy[w])
					}
				}
				if updated != res.VisitedStates {
					t.Errorf("%s: sources + Σ UpdatedStates = %d, visited %d", ctx, updated, res.VisitedStates)
				}
			}
		}
	}
}

// scheduleTrace runs one traced traversal of the named kernel and returns
// its flight records: "ms-pbfs" over all sources (one record per batch),
// otherwise SMS-PBFS in that representation from sources[0].
func scheduleTrace(t *testing.T, kernel string, g *graph.Graph, sources []int, opt Options) []obs.Traversal {
	t.Helper()
	opt.Tracer = obs.NewTracer()
	switch kernel {
	case "ms-pbfs":
		MSPBFS(g, sources, opt)
	case "sms-pbfs/bit":
		SMSPBFS(g, sources[0], BitState, opt)
	case "sms-pbfs/byte":
		SMSPBFS(g, sources[0], ByteState, opt)
	}
	snap := opt.Tracer.Snapshot()
	if len(snap.Traversals) == 0 {
		t.Fatalf("%s: no flight record", kernel)
	}
	return snap.Traversals
}

// checkSchedule asserts the schedule as a count. A bottom-up level runs one
// phase over the shell's task layout tq; a top-down level runs the scatter
// and the resolve over it plus the apply, one task per non-empty stripe
// (none at one worker). So a level fetches NumTasks or 2 x NumTasks +
// stripes tasks, and with stealing off (static) each worker fetches its own
// queue once or twice plus its stripe's apply task. ScatterSteals is 0 on
// bottom-up levels and with stealing off, and never exceeds the level's
// steals. A reused engine's scrub runs before its recorder opens, so every
// batch is held to the same count.
func checkSchedule(t *testing.T, ctx string, tvs []obs.Traversal, tq *sched.TaskQueues, static bool) {
	t.Helper()
	applyOf := make([]int64, tq.NumWorkers()) // apply tasks per worker
	var stripes int64
	for w := range applyOf {
		if tq.NumWorkers() > 1 && len(tq.WorkerTasks(w)) > 0 {
			applyOf[w] = 1
			stripes++
		}
	}
	for b, tv := range tvs {
		for i, it := range tv.Iterations {
			phases, apply := int64(1), int64(0)
			if !it.BottomUp {
				phases, apply = 2, 1
			}
			at := fmt.Sprintf("%s batch %d iteration %d (%s)", ctx, b, i+1, it.Direction())
			if got, want := it.Tasks(), phases*int64(tq.NumTasks())+apply*stripes; got != want {
				t.Errorf("%s: %d tasks, want %d phases x %d + %d apply", at, got, phases, tq.NumTasks(), apply*stripes)
			}
			// Only a top-down level with stealing on has a scatter that
			// can steal, and its steals are a subset of the level's.
			if (it.BottomUp || static) && it.ScatterSteals != 0 {
				t.Errorf("%s: %d scatter steals, want 0", at, it.ScatterSteals)
			}
			if it.ScatterSteals < 0 || it.ScatterSteals > it.Steals() {
				t.Errorf("%s: %d scatter steals outside [0, %d steals]", at, it.ScatterSteals, it.Steals())
			}
			if !static {
				continue
			}
			if it.Steals() != 0 {
				t.Errorf("%s: %d steals with stealing off", at, it.Steals())
			}
			for w, got := range it.WorkerTasks {
				if own := int64(len(tq.WorkerTasks(w))); got != phases*own+apply*applyOf[w] {
					t.Errorf("%s: worker %d ran %d tasks, want %d phases x its %d + %d", at, w, got, phases, own, apply*applyOf[w])
				}
			}
		}
	}
}

// TestTraceForcedDirections: forced policies record the forced reason on
// every iteration and the forced direction throughout, Auto the reason of
// each transition — and under every policy the schedule is a function of
// (n, workers, SplitSize) alone (checkSchedule). The engine is shared, so
// all but the first policy run on warm shells and a used pool: the counts
// must not depend on either.
func TestTraceForcedDirections(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	graphs := []*graph.Graph{
		gen.Kronecker(gen.Graph500Params(8, 3)),  // 256 vertices: below one task
		gen.Kronecker(gen.Graph500Params(13, 3)), // 8192: many tasks per stripe
	}
	for _, tc := range []struct {
		dir    Direction
		wantBU bool
		reason string
	}{
		{TopDownOnly, false, dirForcedTopDown},
		{BottomUpOnly, true, dirForcedBottomUp},
		{Auto, false, ""},
	} {
		for _, g := range graphs {
			n := g.NumVertices()
			sources := RandomSources(g, 65, 29)      // 65: MS-PBFS runs a second batch
			for _, workers := range []int{1, 2, 3} { // 3: uneven stripes
				for _, split := range []int{512, 2048} {
					tq := sched.CreateStripeTasks(sched.NewStripes(n, workers, sched.StripeStride), split)
					if n == 8192 && workers == 3 {
						if want := map[int]int{512: 6 + 6 + 4, 2048: 2 + 2 + 1}[split]; tq.NumTasks() != want {
							t.Fatalf("n=%d workers=3 split=%d: %d tasks, want %d", n, split, tq.NumTasks(), want)
						}
					}
					for _, kernel := range []string{"ms-pbfs", "sms-pbfs/bit", "sms-pbfs/byte"} {
						for _, static := range []bool{false, true} {
							ctx := fmt.Sprintf("dir=%d n=%d workers=%d split=%d %s static=%v",
								tc.dir, n, workers, split, kernel, static)
							tvs := scheduleTrace(t, kernel, g, sources, Options{Workers: workers, BatchWords: 1,
								SplitSize: split, Direction: tc.dir, DisableStealing: static, Engine: eng})
							checkSchedule(t, ctx, tvs, tq, static)
							for _, tv := range tvs {
								if tc.dir == Auto {
									checkReasonConsistency(t, tv.Iterations, ctx)
									continue
								}
								for i, it := range tv.Iterations {
									if it.BottomUp != tc.wantBU || it.Reason != tc.reason {
										t.Errorf("%s iteration %d: %s/%q, want bottomUp=%v reason=%q",
											ctx, i+1, it.Direction(), it.Reason, tc.wantBU, tc.reason)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestLevelTasksMatchPhases: every fetched task is counted once, in the
// level whose phase fetched it. Reading the engine's own layouts, a
// top-down level's summed WorkerTasks is 2·|tq| + |applyTq| (scatter,
// apply, resolve) and a bottom-up level's is |tq|, for both kernels, at
// one worker (no apply layout) and at three, in every direction.
func TestLevelTasksMatchPhases(t *testing.T) {
	g := goldenStriped(12, 5)
	sources := RandomSources(g, 64, 5)
	check := func(ctx string, tq, applyTq *sched.TaskQueues, its []obs.IterationRecord) {
		t.Helper()
		apply := 0
		if applyTq != nil {
			apply = applyTq.NumTasks()
		}
		for i, it := range its {
			want := int64(2*tq.NumTasks() + apply)
			if it.BottomUp {
				want = int64(tq.NumTasks())
			}
			if got := it.Tasks(); got != want {
				t.Errorf("%s level %d (%s): %d tasks, want %d (|tq| %d, |applyTq| %d)",
					ctx, i+1, it.Direction(), got, want, tq.NumTasks(), apply)
			}
		}
	}
	eng := NewEngine() // a fresh arena: a parked shell of a larger prefix would serve too
	defer eng.Close()
	for _, workers := range []int{1, 3} {
		for _, dir := range []Direction{TopDownOnly, BottomUpOnly, Auto} {
			opt := Options{Workers: workers, BatchWords: 1, Direction: dir, CollectIterStats: true, Engine: eng}
			ctx := fmt.Sprintf("workers=%d dir=%d", workers, dir)
			ms := NewMSPBFSEngine(g, opt)
			if got, want := ms.tq.NumTasks(), 7; got != want {
				t.Fatalf("%s: |tq| = %d, want %d", ctx, got, want)
			}
			if workers > 1 && ms.applyTq.NumTasks() != 3 {
				t.Fatalf("%s: |applyTq| = %d, want 3", ctx, ms.applyTq.NumTasks())
			}
			its := ms.Run(sources, nil).Stats.Iterations
			if len(its) != 6 {
				t.Errorf("%s ms-pbfs: %d levels, want 6", ctx, len(its))
			}
			check(ctx+" ms-pbfs", ms.tq, ms.applyTq, its)
			ms.Close()
			sms := NewSMSPBFSEngine(g, BitState, opt)
			for _, s := range sources[:8] {
				check(fmt.Sprintf("%s sms-pbfs source %d", ctx, s), sms.tq, sms.applyTq, sms.Run(s).Stats.Iterations)
			}
			sms.Close()
		}
	}
}

// TestTraceDirectionEquivalenceSuite ties the trace to the
// direction-forcing equivalence invariant: the traced Auto run must
// discover exactly the same levels as the forced runs (tracing must not
// perturb the traversal), on the graphs of the grid's direction slice.
func TestTraceDirectionEquivalenceSuite(t *testing.T) {
	for gname, g := range directionGraphs() {
		sources := RandomSources(g, 64, 31)
		base := Options{Workers: 3, BatchWords: 1, RecordLevels: true}

		tdOpt := base
		tdOpt.Direction = TopDownOnly
		td := MSPBFS(g, sources, tdOpt)

		tr := obs.NewTracer()
		autoOpt := base
		autoOpt.Direction = Auto
		autoOpt.Tracer = tr
		auto := MSPBFS(g, sources, autoOpt)

		for i, s := range sources {
			CheckLevels(t, fmt.Sprintf("%s source %d traced-auto vs top-down", gname, s), auto.Levels[i], td.Levels[i])
		}
		if td.VisitedStates != auto.VisitedStates {
			t.Errorf("%s: visited states td=%d traced-auto=%d",
				gname, td.VisitedStates, auto.VisitedStates)
		}
		snap := tr.Snapshot()
		if len(snap.Traversals) != 1 || len(snap.Traversals[0].Iterations) == 0 {
			t.Fatalf("%s: traced auto run produced no flight record", gname)
		}
		checkReasonConsistency(t, snap.Traversals[0].Iterations, gname)
	}
}

// TestTraceKroneckerScale20 is the acceptance run: a Kronecker scale-20
// traversal's flight record must carry the heuristic's actual decision
// sequence (asserted against an identically-seeded untraced run's
// records and the forced-direction equivalence invariant), and
// its Chrome export must be valid trace-event JSON.
func TestTraceKroneckerScale20(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-20 graph generation is too slow for -short")
	}
	g := gen.Kronecker(gen.Graph500Params(20, 3))
	sources := RandomSources(g, 64, 29)
	workers := runtime.GOMAXPROCS(0)
	base := Options{Workers: workers, BatchWords: 1}

	// Untraced control run: the heuristic's decisions observed through
	// the returned records.
	ctlOpt := base
	ctlOpt.Direction = Auto
	ctlOpt.CollectIterStats = true
	ctl := MSPBFS(g, sources, ctlOpt)

	tr := obs.NewTracer()
	opt := base
	opt.Direction = Auto
	opt.Tracer = tr
	res := MSPBFS(g, sources, opt)

	snap := tr.Snapshot()
	if len(snap.Traversals) != 1 {
		t.Fatalf("got %d traversals, want 1", len(snap.Traversals))
	}
	tv := snap.Traversals[0]
	stats := ctl.Stats.Iterations
	if len(tv.Iterations) != len(stats) {
		t.Fatalf("trace has %d iterations, control run has %d", len(tv.Iterations), len(stats))
	}
	sawBottomUp := false
	for i, it := range tv.Iterations {
		if it.BottomUp != stats[i].BottomUp {
			t.Errorf("iteration %d: traced %s, control bottomUp=%v",
				i+1, it.Direction(), stats[i].BottomUp)
		}
		if it.FrontierVertices != stats[i].FrontierVertices || it.UpdatedStates != stats[i].UpdatedStates {
			t.Errorf("iteration %d: traced frontier/next %d/%d, control %d/%d",
				i+1, it.FrontierVertices, it.UpdatedStates, stats[i].FrontierVertices, stats[i].UpdatedStates)
		}
		sawBottomUp = sawBottomUp || it.BottomUp
	}
	if !sawBottomUp {
		t.Error("scale-20 Kronecker auto run never went bottom-up")
	}
	checkReasonConsistency(t, tv.Iterations, "kron-20")
	if res.VisitedStates != ctl.VisitedStates {
		t.Errorf("traced visited %d != control %d", res.VisitedStates, ctl.VisitedStates)
	}

	// The emitted Chrome trace must parse and carry the iterations.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < len(tv.Iterations) {
		t.Errorf("Chrome export has %d events for %d iterations",
			len(parsed.TraceEvents), len(tv.Iterations))
	}
}

// TestTracePerCoreMSBFS: the "one sequential instance per core" execution
// model opens concurrent flight records on one tracer; every batch must
// land, with the single-threaded kernels recording no worker vectors.
func TestTracePerCoreMSBFS(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 5))
	sources := RandomSources(g, 256, 17)
	tr := obs.NewTracer()
	MSBFSPerCore(g, sources, Options{Workers: 4, BatchWords: 1, Tracer: tr})
	snap := tr.Snapshot()
	if len(snap.Traversals) != 4 {
		t.Fatalf("got %d traversals for 4 batches, want 4", len(snap.Traversals))
	}
	for _, tv := range snap.Traversals {
		if tv.Algo != "ms-bfs" {
			t.Errorf("algo = %q, want ms-bfs", tv.Algo)
		}
		for _, it := range tv.Iterations {
			if it.WorkerTasks != nil {
				t.Errorf("sequential kernel recorded worker vectors")
			}
		}
	}
}

// TestTraceSingleSourceKernels: every kernel variant publishes a usable
// flight record under its own label.
func TestTraceSingleSourceKernels(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 5))
	tr := obs.NewTracer()
	SMSPBFS(g, 1, BitState, Options{Workers: 2, Tracer: tr})
	SMSPBFS(g, 1, ByteState, Options{Workers: 2, Tracer: tr})
	Beamer(g, 1, BeamerGAPBS, Options{Tracer: tr})
	IBFS(g, []int{1, 2, 3}, Options{Workers: 2, Tracer: tr})

	snap := tr.Snapshot()
	want := map[string]bool{
		"sms-pbfs/bit": false, "sms-pbfs/byte": false,
		"beamer/gapbs": false, "ibfs": false,
	}
	for _, tv := range snap.Traversals {
		if _, ok := want[tv.Algo]; !ok {
			t.Errorf("unexpected algo label %q", tv.Algo)
			continue
		}
		want[tv.Algo] = true
		if len(tv.Iterations) == 0 {
			t.Errorf("%s: empty flight record", tv.Algo)
		}
		if tv.Algo == "ibfs" {
			for _, it := range tv.Iterations {
				if it.Reason != dirTopDownKernel {
					t.Errorf("ibfs reason = %q, want %q", it.Reason, dirTopDownKernel)
				}
			}
		}
	}
	for algo, seen := range want {
		if !seen {
			t.Errorf("no flight record for %s", algo)
		}
	}
}
