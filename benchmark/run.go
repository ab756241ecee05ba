package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/numa"
)

const (
	// windowLen is one measured window: short enough that a 10 s run has six
	// values to take a median of, long enough to hold 40+ ops of the slowest
	// workload (a 64-source batch at scale 18), so that its p50 has ten
	// samples beyond it.
	windowLen   = 1500 * time.Millisecond
	warmupLen   = time.Second
	smokeScale  = 10
	smokeWindow = 300 * time.Millisecond
	// noisySteal is the share of host CPU time stolen by the hypervisor
	// above which a run's numbers are labelled noisy.
	noisySteal = 0.15
	// setUps is how many times a run sets the workload up; setup_s is the
	// median of them.
	setUps = 3
)

// plan lays out a run's timeline in windows of windowLen. -trace 0:
// warm-up, then -seconds of measured windows. -trace 1: warm-up, half of
// -seconds in measured windows (the untraced base of the per-layer
// numbers), a quarter in traced windows; the last quarter is left to the
// probes.
func plan(o options) *timeline {
	warm, win := warmupLen, windowLen
	n := int(time.Duration(o.seconds) * time.Second / win)
	if o.smoke {
		warm, win, n = smokeWindow/3, smokeWindow, 1
	}
	untraced, tracedN := max(n, 1), 0
	if o.trace == 1 {
		untraced, tracedN = max(n/2, 1), max(n/4, 1)
	}
	kinds, durs := []phaseKind{warmup}, []time.Duration{warm}
	for i := 0; i < untraced+tracedN; i++ {
		k := measured
		if i >= untraced {
			k = traced
		}
		kinds, durs = append(kinds, k), append(durs, win)
	}
	return newTimeline(kinds, durs)
}

// runWorkload runs one workload in this process and returns its result
// line; the human-readable report goes to w.
func runWorkload(o options, w io.Writer) (result, error) {
	sp, ok := findSpec(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return result{}, fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if o.smoke {
		sp.scale = smokeScale
	}
	tl := plan(o)
	printHeader(w, o, sp, tl)

	r, setupCPU, setupWall, err := setUpRepeated(sp, o, w)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	t := time.Now()
	r.prepare(tl.total())
	oracleS := time.Since(t).Seconds()
	fmt.Fprintf(w, "graph: %d vertices, %d edges, CSR %.1f MB, one batch's state %.1f MB; oracle %.2f s\n",
		r.g.NumVertices(), r.g.NumEdges(), float64(r.g.MemoryBytes())/(1<<20),
		float64(r.g.NumVertices())*3*8/(1<<20), oracleS)

	samples, bounds, ticks := r.run(tl, o.trace == 1)
	rss := peakRSSMB()

	var all, tracedWs []window
	for i, k := range tl.kinds {
		switch k {
		case measured:
			all = append(all, gather(samples, i, tl, bounds))
		case traced:
			tracedWs = append(tracedWs, gather(samples, i, tl, bounds))
		}
	}
	printWindowTable(w, sp, all)
	vals, per := timedValues(all)
	vals["setup_s"] = setupCPU
	vals["peak_rss_mb"] = rss
	whole := pool(append(append([]window(nil), all...), tracedWs...))
	res := result{Attempted: whole.attempted, Failed: whole.failed}
	if steal := whole.steal(); steal > noisySteal {
		fmt.Fprintf(w, "noisy: %.0f %% of host CPU time was stolen during the run\n", steal*100)
	}

	printWindows(w, append(append([]metricDef(nil), endToEnd...), timedMetrics...), vals, per)
	if o.trace == 0 {
		res.Metrics = pack(endToEnd, vals)
	} else {
		spans := buildSpans(samples, phasesOf(tracedWs))
		path := filepath.Join(o.out, "trace-"+sp.name+".json")
		if err := writeChromeTrace(path, spans); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(w, "traced windows: %d spans in %s, %d outside their parent\n", len(spans), path, escapes(spans))
		lv := r.layerValues(tl, samples, ticks, all, tracedWs)
		for _, d := range timedMetrics {
			lv[d.name] = vals[d.name]
		}
		lv["harness.window_spread"] = per["latency_ms_p50"].spread()
		lv["harness.unattributed_share"] = unattributedShare(spans)
		lv["harness.steal_share"] = whole.steal()
		lv["harness.oracle_s"] = oracleS
		lv["harness.setup_wall_s"] = setupWall
		for name, v := range r.probes() {
			lv[name] = v
		}
		printValues(w, perLayer, lv)
		res.Metrics = pack(perLayer, lv)
		// A span outside its parent means wait + exec exceeded the call that
		// contained them: the program's own split is wrong.
		res.Failed += escapes(spans)
	}

	// The checks too heavy to run per op, after the measured windows.
	switch {
	case !sp.serving:
		if err := r.verifyLevels(); err != nil {
			fmt.Fprintln(w, "wrong:", err)
			res.Failed++
		}
	case sp.dynamic:
		wrong := ingestOracle(r.g, r.pool, r.log, r.sampled)
		fmt.Fprintf(w, "ingest oracle: %d sampled replies re-derived over %d logged versions, %d wrong\n",
			len(r.sampled), len(r.log), wrong)
		res.Failed += wrong
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setUpRepeated sets the workload up setUps times from the same seed, each
// time from an emptied heap, and keeps the last rig for the run. It returns
// the median of the set-ups' process CPU times, which is setup_s, and the
// median of their wall times. CPU time because on the reference host the
// wall time of one and the same set-up follows the hypervisor's steal from
// 0.7 s to 4 s within ten minutes while its CPU time stays within a third
// (README.md, "Host noise"); several set-ups because a single one still
// varies by a tenth on a quiet host.
func setUpRepeated(sp spec, o options, w io.Writer) (r *rig, cpuS, wallS float64, err error) {
	var cpus, walls []float64
	for i := 0; i < setUps; i++ {
		if r != nil {
			r.close()
			r = nil
			debug.FreeOSMemory()
		}
		steal0, host0 := procStat()
		c, t := cpuTime(), time.Now()
		if r, err = setUp(sp, o.seed, o.flush); err != nil {
			return nil, 0, 0, err
		}
		cpu, wall := (cpuTime() - c).Seconds(), time.Since(t).Seconds()
		steal1, host1 := procStat()
		fmt.Fprintf(w, "set-up %d: %.3f s CPU, %.3f s wall under steal %.3f\n", i, cpu, wall, ratio(steal1-steal0, host1-host0))
		cpus, walls = append(cpus, cpu), append(walls, wall)
	}
	return r, median(cpus), median(walls), nil
}

// printWindowTable lists every measured window's own values with the host
// steal it saw, so a reader can tell a slow program from a slow host.
func printWindowTable(w io.Writer, sp spec, all []window) {
	for i := range all {
		x := &all[i]
		lag := p(x.lag, 0.99)
		fmt.Fprintf(w, "  window %2d: steal %.3f  %5d ops  latency p50 %8.3f ms  %9.2f ops/s  %8.4f gteps  cpu %7.3f ms/op  generator lag p99 %.3f ms",
			i, x.steal(), len(x.lat), p(x.lat, 0.5), x.opsPerS(), x.gteps(), x.cpuMSPerOp(), lag)
		if sp.readRate > 0 && lag > 1e3/sp.readRate {
			fmt.Fprintf(w, "  noisy: lag exceeds the %.2f ms mean arrival gap", 1e3/sp.readRate)
		}
		fmt.Fprintln(w)
	}
}

// layerValues computes the per-layer metrics that come from the load
// itself, pooled over the untraced windows (ws) and the traced ones (tws).
func (r *rig) layerValues(tl *timeline, samples []sample, ticks []tick, ws, tws []window) map[string]float64 {
	lv := map[string]float64{}
	for name, v := range r.parts {
		lv[name] = v
	}
	m, tw := pool(ws), pool(tws)
	untraced, onlyTraced := phasesOf(ws), phasesOf(tws)
	reads := float64(len(m.lat))
	latP50 := p(m.lat, 0.5)

	lv["failed_share"] = ratio(float64(m.failed), float64(m.attempted))
	lv["latency_ms_p90"] = p(m.lat, 0.9)
	lv["harness.latency_ms_p99"] = p(m.lat, 0.99)
	lv["harness.generator_lag_ms_p99"] = p(m.lag, 0.99)
	if !r.sp.serving {
		// Offline, a traced window switches CollectIterStats on. A served
		// request's spans come from the wait_us / run_us every reply
		// carries anyway: there is no tracing to switch on, so no overhead
		// to report.
		lv["harness.trace_overhead_ratio"] = ratio(p(tw.lat, 0.5), latP50)
	}
	lv["harness.allocs_per_op"] = ratio(float64(m.d.mallocs), reads)
	lv["harness.gc_pause_ms"] = float64(m.d.gcPause) / float64(time.Millisecond)

	lv["core.engine_hit_ratio"] = ratio(float64(m.d.hits), float64(m.d.hits+m.d.misses))
	lv["core.engine_free_mb"] = float64(m.d.engineFreeBytes) / (1 << 20)
	if r.entry == nil {
		return lv
	}

	sv := split(samples, untraced, false)
	lv["server.coalescer.wait_ms_p50"] = p(sv.waitMS, 0.5)
	lv["server.coalescer.wait_ms_p90"] = p(sv.waitMS, 0.9)
	lv["server.coalescer.exec_ms_p50"] = p(sv.execMS, 0.5)
	lv["server.http.response_bytes_mean"] = mean(sv.bytes)
	lv["server.latency_over_exec_ratio"] = ratio(latP50, lv["server.coalescer.exec_ms_p50"])
	lv["server.coalescer.batch_width_mean"] = ratio(float64(m.d.sources), float64(m.d.batches))
	lv["server.coalescer.batches_per_s"] = ratio(float64(m.d.batches), m.secs)
	lv["server.coalescer.rejected_share"] = ratio(float64(m.d.rejected), float64(m.d.rejected+m.d.requests))
	queueLen, deltaArcs, pinnedMax := tickMeans(ticks, tl, untraced)
	lv["server.coalescer.queue_len_mean"] = queueLen

	// The traced window's alternate ops went through Entry.Submit /
	// Entry.ApplyEdges: what is left of a Submit call after wait and exec
	// is the coalescer's demux; what ServeHTTP adds to that is HTTP.
	direct, viaHTTP := split(samples, onlyTraced, true), split(samples, onlyTraced, false)
	lv["server.coalescer.demux_ms_p50"] = p(direct.overMS, 0.5)
	lv["server.http.overhead_ms_p50"] = p(viaHTTP.overMS, 0.5) - lv["server.coalescer.demux_ms_p50"]

	if d := r.entry.Dyn; d != nil {
		lv["ingest_ms_p50"] = p(m.ingest, 0.5)
		lv["dyngraph.apply_ms_p50"] = p(direct.writeMS, 0.5)
		lv["dyngraph.compactions"] = float64(m.d.compactions)
		lv["dyngraph.compact_ms_p50"] = float64(d.CompactSeconds().P50()) / float64(time.Millisecond)
		lv["dyngraph.delta_arcs_mean"] = deltaArcs
		lv["dyngraph.versions_published"] = float64(m.d.versions)
		lv["dyngraph.pinned_max"] = float64(pinnedMax)
		lv["dyngraph.ingest_rejected_share"] = ratio(float64(m.d.ingestRejected), float64(m.d.ingestRejected+m.d.ingestBatches))
	}
	return lv
}

func printHeader(w io.Writer, o options, sp spec, tl *timeline) {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Fprintf(w, "== %s  seed %d  trace %d  commit %s  %s  nproc %d  GOMAXPROCS %d  GOGC %d  L2 %d B  LLC %d B\n",
		sp.name, o.seed, o.trace, gitSHA(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc,
		cacheBytes(2), numa.LLCBytes())
	n := map[phaseKind]int{}
	for _, k := range tl.kinds {
		n[k]++
	}
	_, firstEnd := tl.span(1)
	fmt.Fprintf(w, "plan: Kronecker scale %d x %d, warm-up %v, %d windows + %d traced windows of %v",
		sp.scale, edgeFactor, tl.bounds[0], n[measured], n[traced], firstEnd-tl.bounds[0])
	if o.flush != 0 {
		fmt.Fprintf(w, "; SELF-TEST flush deadline %v, not a baseline", o.flush)
	}
	fmt.Fprintln(w)
}

// printWindows prints each metric with its unit and, where it is a median
// of windows, the least and greatest window beside it.
func printWindows(w io.Writer, defs []metricDef, vals map[string]float64, per map[string]windowed) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-18s %14.6g %-10s", d.name, vals[d.name], d.unit)
		if x, ok := per[d.name]; ok {
			lo, hi := x.minmax()
			fmt.Fprintf(w, "  windows min %.6g max %.6g", lo, hi)
			if x.thin {
				fmt.Fprintf(w, "  (a window had fewer than %d samples beyond this percentile)", beyond)
			}
		}
		fmt.Fprintln(w)
	}
}

func printValues(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// printResult writes the result as the run's last line.
func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
