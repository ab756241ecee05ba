package main

import (
	"bytes"
	"encoding/json"
	"time"

	msbfs "repro"
)

// Probes are direct kernel calls on the workload's graph while the server
// is idle: what one batch, one lone-source batch and one single-source BFS
// cost without any layer above core. They give the per-layer numbers that
// explain an end-to-end change; no end-to-end metric comes from them.

const (
	probeReps  = 20 // timed calls per probe
	detailReps = 3  // further calls with CollectIterStats and a Tracer
	deltaEdges = 512
)

// timeCalls runs f reps times and returns each call's wall time in ms.
func timeCalls(reps int, f func()) []float64 {
	ms := make([]float64, reps)
	for i := range ms {
		t := time.Now()
		f()
		ms[i] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	return ms
}

// probes measures the core, bitset and sched layers on the rig's graph.
func (r *rig) probes() map[string]float64 {
	g := r.g
	if r.entry != nil {
		g = r.entry.G // the striped graph the daemon traverses
	}
	out := map[string]float64{}
	sources := g.RandomSources(batchSize, r.seed*8+seedSources)
	// Per-worker visit counters, a cache line apart.
	visits := make([]int64, r.workers*8)
	count := func(worker, _, _, _ int) { visits[worker*8]++ }

	// busyShare is the process's CPU time over wall x workers while f ran:
	// the kernels' busy share as seen from outside (per-worker busy times
	// are not on the public Options).
	busyShare := func(f func()) float64 {
		cpu0, t0 := cpuTime(), time.Now()
		f()
		return ratio(float64(cpuTime()-cpu0), float64(time.Since(t0))*float64(r.workers))
	}

	var skews []float64
	batchBusy := busyShare(func() {
		out["core.batch64_ms_p50"] = p(timeCalls(probeReps, func() {
			clear(visits)
			g.MultiBFSVisitor(sources, r.opt, count)
			lo, hi := visits[0], visits[0]
			for w := 1; w < r.workers; w++ {
				lo, hi = min(lo, visits[w*8]), max(hi, visits[w*8])
			}
			skews = append(skews, ratio(float64(hi), float64(lo)))
		}), 0.5)
	})
	out["core.worker_skew_p50"] = p(skews, 0.5)
	out["core.mspbfs_w1_ms_p50"] = p(timeCalls(probeReps, func() {
		g.MultiBFSVisitor(sources[:1], r.opt, count)
	}), 0.5)
	i := 0
	singleBusy := busyShare(func() {
		out["core.smspbfs_ms_p50"] = p(timeCalls(probeReps, func() {
			g.BFS(sources[i%len(sources)], r.opt)
			i++
		}), 0.5)
	})

	// The breakdown follows the workload's own kernel shape.
	ec := g.NewEdgeCounter()
	if r.sp.batch == 1 {
		out["core.worker_utilization"] = singleBusy
		out["core.traversed_edges_per_op"] = float64(ec.EdgesFor(sources[0]))
		r.breakdown(out, func(opt msbfs.Options) []msbfs.IterationStat { return g.BFS(sources[0], opt).Iterations })
	} else {
		out["core.worker_utilization"] = batchBusy
		out["core.traversed_edges_per_op"] = float64(ec.EdgesForAll(sources))
		r.breakdown(out, func(opt msbfs.Options) []msbfs.IterationStat {
			return g.MultiBFSVisitor(sources, opt, count).Iterations
		})
	}
	if r.sp.dynamic {
		out["dyngraph.overlay_scan_ratio"] = r.overlayRatio(sources, count)
	}
	return out
}

// breakdown runs the detailed call detailReps times, with CollectIterStats
// and a Tracer, and averages the iteration counts and times it reports.
// The counts repeat exactly for a seed; merge words and steals depend on
// who stole what and do not.
func (r *rig) breakdown(out map[string]float64, call func(msbfs.Options) []msbfs.IterationStat) {
	var iters, bottomUp, scanned, topMS, botMS, outsideMS, tasks, steals, merge float64
	for rep := 0; rep < detailReps; rep++ {
		opt := r.opt
		opt.CollectIterStats = true
		opt.Tracer = msbfs.NewTracer()
		t := time.Now()
		its := call(opt)
		wall := time.Since(t)
		var inside time.Duration
		for _, it := range its {
			iters++
			scanned += float64(it.ScannedEdges)
			inside += it.Duration
			if it.BottomUp {
				bottomUp++
				botMS += it.Duration.Seconds() * 1e3
			} else {
				topMS += it.Duration.Seconds() * 1e3
			}
		}
		outsideMS += (wall - inside).Seconds() * 1e3
		tk, st, mw := tracerTotals(opt.Tracer)
		tasks, steals, merge = tasks+tk, steals+st, merge+mw
	}
	n := float64(detailReps)
	out["core.iterations_per_op"] = iters / n
	out["core.bottomup_iterations_per_op"] = bottomUp / n
	out["core.scanned_edges_per_op"] = scanned / n
	out["core.topdown_ms_per_op"] = topMS / n
	out["core.bottomup_ms_per_op"] = botMS / n
	out["core.outside_iterations_ms_per_op"] = outsideMS / n
	out["sched.tasks_per_op"] = tasks / n
	out["sched.steal_share"] = ratio(steals, tasks)
	out["bitset.merge_words_per_op"] = merge / n
}

// tracerTotals sums the per-iteration task, steal and merge-word counts a
// traversal's flight record carries, read through the public Chrome-trace
// export.
func tracerTotals(tr *msbfs.Tracer) (tasks, steals, mergeWords float64) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return 0, 0, 0
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Args struct {
				Tasks      float64 `json:"tasks"`
				Steals     float64 `json:"steals"`
				MergeWords float64 `json:"merge_words"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(buf.Bytes(), &doc) != nil {
		return 0, 0, 0
	}
	for _, e := range doc.TraceEvents {
		if e.Cat == "iteration" {
			tasks += e.Args.Tasks
			steals += e.Args.Steals
			mergeWords += e.Args.MergeWords
		}
	}
	return tasks, steals, mergeWords
}

// overlayRatio compacts the dynamic graph, ingests a fixed 512-edge delta
// and times the same 64-source batch on the pinned snapshot with and
// without its overlay: the cost of the fused overlay scan over the plain
// CSR scan (base: no overlay).
func (r *rig) overlayRatio(sources []int, count func(int, int, int, int)) float64 {
	d := r.entry.Dyn
	if _, err := d.Compact(); err != nil {
		return 0
	}
	rnd := rng(r.seed, seedIngest+1)
	n := r.g.NumVertices()
	edges := make([]msbfs.Edge, deltaEdges)
	for i := range edges {
		edges[i] = msbfs.Edge{U: uint32(rnd.Intn(n)), V: uint32(rnd.Intn(n))}
	}
	if _, err := r.entry.ApplyEdges(edges); err != nil {
		return 0
	}
	snap, err := d.Acquire()
	if err != nil {
		return 0
	}
	defer snap.Release()
	base, overlay, with := snap.Graph(), snap.Overlay(), r.opt
	with.Overlay = overlay
	var fused, plain []float64
	for i := 0; i < probeReps/2; i++ {
		fused = append(fused, timeCalls(1, func() { base.MultiBFSVisitor(sources, with, count) })...)
		plain = append(plain, timeCalls(1, func() { base.MultiBFSVisitor(sources, r.opt, count) })...)
	}
	return ratio(p(fused, 0.5), p(plain, 0.5))
}
