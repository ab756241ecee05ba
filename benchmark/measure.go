package main

import "time"

// window is what one phase of the timeline yielded.
type window struct {
	phase             int
	secs              float64
	lat               []float64 // ms, correct reads
	ingest            []float64 // ms, correct writes
	lag               []float64 // ms, open-loop send lateness
	attempted, failed int
	edges             int64
	d                 deltas // what the counters moved by during the window
}

// deltas is the difference of two counters snapshots; deltas of several
// windows add up.
type deltas struct {
	cpu, gcPause                         time.Duration
	hits, misses, mallocs                uint64
	requests, rejected, batches, sources int64
	compactions, ingestBatches           int64
	ingestRejected                       int64
	versions                             uint64
	steal, hostCPU                       float64
	engineFreeBytes                      int64 // at the end of the (last) window, not a difference
}

func (c counters) since(prev counters) deltas {
	return deltas{
		cpu: c.cpu - prev.cpu, gcPause: c.gcPause - prev.gcPause,
		hits: c.eng.Hits - prev.eng.Hits, misses: c.eng.Misses - prev.eng.Misses, mallocs: c.mallocs - prev.mallocs,
		requests: c.requests - prev.requests, rejected: c.rejected - prev.rejected,
		batches: c.batches - prev.batches, sources: c.sources - prev.sources,
		compactions: c.dyn.Compactions - prev.dyn.Compactions, ingestBatches: c.dyn.IngestBatches - prev.dyn.IngestBatches,
		ingestRejected: c.dyn.IngestRejected - prev.dyn.IngestRejected, versions: c.dyn.Version - prev.dyn.Version,
		steal: c.steal - prev.steal, hostCPU: c.hostCPU - prev.hostCPU,
		engineFreeBytes: c.eng.FreeBytes,
	}
}

func (d *deltas) add(o deltas) {
	d.cpu += o.cpu
	d.gcPause += o.gcPause
	d.hits += o.hits
	d.misses += o.misses
	d.mallocs += o.mallocs
	d.requests += o.requests
	d.rejected += o.rejected
	d.batches += o.batches
	d.sources += o.sources
	d.compactions += o.compactions
	d.ingestBatches += o.ingestBatches
	d.ingestRejected += o.ingestRejected
	d.versions += o.versions
	d.steal += o.steal
	d.hostCPU += o.hostCPU
	d.engineFreeBytes = o.engineFreeBytes
}

// gather collects the samples of one phase.
func gather(samples []sample, phase int, tl *timeline, bounds []counters) window {
	from, to := tl.span(phase)
	w := window{phase: phase, secs: (to - from).Seconds(), d: bounds[phase+1].since(bounds[phase])}
	for i := range samples {
		s := &samples[i]
		if s.phase != phase {
			continue
		}
		w.attempted++
		if s.sent > s.due {
			w.lag = append(w.lag, float64(s.sent-s.due)/float64(time.Millisecond))
		}
		switch {
		case !s.ok:
			w.failed++
		case s.write:
			w.ingest = append(w.ingest, s.latencyMS())
		default:
			w.lat = append(w.lat, s.latencyMS())
			w.edges += s.edges
		}
	}
	return w
}

// steal is the share of the host's CPU time the hypervisor withheld from
// this VM during the window. It is printed beside every window and decides
// the run's noisy verdict; no reported value is changed by it.
func (w *window) steal() float64 {
	return ratio(w.d.steal, w.d.hostCPU)
}

func (w *window) opsPerS() float64 { return float64(len(w.lat)) / w.secs }

func (w *window) gteps() float64 { return float64(w.edges) / w.secs / 1e9 }

func (w *window) cpuMSPerOp() float64 {
	return ratio(float64(w.d.cpu)/float64(time.Millisecond), float64(len(w.lat)))
}

// timedValues reduces the measured windows to the timed metrics: per
// window its own median or rate, exactly as measured, then the plain median
// over the windows. The windowed values are returned too, for the min/max
// columns.
func timedValues(ws []window) (map[string]float64, map[string]windowed) {
	per := map[string]windowed{}
	add := func(name string, v float64, enough bool) {
		x := per[name]
		x.add(v, enough)
		per[name] = x
	}
	for i := range ws {
		w := &ws[i]
		p50, enough := percentile(w.lat, 0.50)
		add("latency_ms_p50", p50, enough)
		add("ops_per_s", w.opsPerS(), true)
		add("gteps", w.gteps(), true)
		add("cpu_ms_per_op", w.cpuMSPerOp(), true)
	}
	vals := map[string]float64{}
	for name, x := range per {
		vals[name] = x.median()
	}
	return vals, per
}

func phasesOf(ws []window) map[int]bool {
	m := map[int]bool{}
	for _, w := range ws {
		m[w.phase] = true
	}
	return m
}

// pool merges windows into one, for the per-layer numbers, which are
// diagnostics read beside each other rather than gated one by one.
func pool(ws []window) window {
	var p window
	for i := range ws {
		w := &ws[i]
		p.d.add(w.d)
		p.secs += w.secs
		p.lat = append(p.lat, w.lat...)
		p.ingest = append(p.ingest, w.ingest...)
		p.lag = append(p.lag, w.lag...)
		p.attempted += w.attempted
		p.failed += w.failed
		p.edges += w.edges
	}
	return p
}

// servedSplit reduces the server-reported wait/exec split and the
// harness's own view of the calls around it. phases selects the samples;
// direct selects Submit/ApplyEdges calls over ServeHTTP ones.
type servedSplit struct {
	waitMS, execMS []float64 // wait_us, run_us of every read
	overMS         []float64 // call wall - wait - exec
	bytes          []float64
	writeMS        []float64 // call wall of writes
}

func split(samples []sample, phases map[int]bool, direct bool) servedSplit {
	var sp servedSplit
	for i := range samples {
		s := &samples[i]
		if !phases[s.phase] || !s.ok || s.direct != direct {
			continue
		}
		call := float64(s.ret-s.sent) / float64(time.Millisecond)
		if s.write {
			sp.writeMS = append(sp.writeMS, call)
			continue
		}
		wait, exec := float64(s.waitUS)/1e3, float64(s.runUS)/1e3
		sp.waitMS = append(sp.waitMS, wait)
		sp.execMS = append(sp.execMS, exec)
		sp.overMS = append(sp.overMS, call-wait-exec)
		sp.bytes = append(sp.bytes, float64(s.bytes))
	}
	return sp
}

func p(xs []float64, q float64) float64 {
	v, _ := percentile(xs, q)
	return v
}

// tickMeans averages the 10 ms queue samples that fall inside the phases.
func tickMeans(ticks []tick, tl *timeline, phases map[int]bool) (queueLen, deltaArcs float64, pinnedMax int64) {
	var n float64
	for _, t := range ticks {
		if !phases[tl.phaseAt(t.at)] {
			continue
		}
		n++
		queueLen += float64(t.queueLen)
		deltaArcs += float64(t.deltaArcs)
		if t.pinned > pinnedMax {
			pinnedMax = t.pinned
		}
	}
	return ratio(queueLen, n), ratio(deltaArcs, n), pinnedMax
}
