package core

import (
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// batchOut is what one batch of a k-wide kernel hands the batch driver:
// its level rows (nil unless RecordLevels), its (source, vertex)
// discoveries and its run stat.
type batchOut struct {
	levels  [][]int32
	visited int64
	stat    metrics.RunStat
}

// batchFunc runs one batch of at most 64*BatchWords sources; off is
// batch[0]'s index among the caller's sources.
type batchFunc func(batch []int, off int) batchOut

// forEachBatch is the one split of a k-wide run's sources into batches of
// up to 64*words.
func forEachBatch(sources []int, words int, fn func(batch []int, off int)) {
	perBatch := SourcesPerBatch(words)
	for off := 0; off < len(sources); off += perBatch {
		fn(sources[off:min(off+perBatch, len(sources))], off)
	}
}

// newMultiResult is the result shell of a k-wide run over sources.
func newMultiResult(sources []int, opt Options) *MultiResult {
	res := &MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}
	return res
}

// add merges the outcome of the batch that starts at off.
func (r *MultiResult) add(off int, b batchOut) {
	if b.levels != nil {
		copy(r.Levels[off:], b.levels)
	}
	r.VisitedStates += b.visited
	r.Stats.Merge(b.stat)
}

// runBatches is the batch driver of the k-wide kernels (MS-PBFS, MS-BFS,
// iBFS): it runs the batches of sources through run one after another on
// the calling goroutine and merges them in order.
func runBatches(sources []int, opt Options, run batchFunc) *MultiResult {
	res := newMultiResult(sources, opt)
	forEachBatch(sources, opt.batchWords(), func(batch []int, off int) {
		res.add(off, run(batch, off))
	})
	return res
}

// runInstances is the execution model of the paper's instance-per-core and
// instance-per-socket baselines: instances independent kernel instances,
// each opened with open (which also returns its close), pull whole batches
// from the shared workload. The outcomes are merged in instance order;
// Stats.Elapsed is the wall-clock time of the whole run (GTEPS is
// edges/wall-clock, as the paper evaluates these modes) and WorkerBusy holds
// each instance's busy time.
func runInstances(sources []int, opt Options, instances int, open func() (batchFunc, func())) *MultiResult {
	type job struct {
		batch []int
		off   int
		out   batchOut
	}
	start := time.Now()
	jobs := make(chan job)
	done := make([][]job, instances)
	busy := make([]time.Duration, instances)
	var wg sync.WaitGroup
	for i := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, release := open()
			defer release()
			for j := range jobs {
				t0 := time.Now()
				j.out = run(j.batch, j.off)
				busy[i] += time.Since(t0)
				done[i] = append(done[i], j)
			}
		}()
	}
	forEachBatch(sources, opt.batchWords(), func(batch []int, off int) {
		jobs <- job{batch: batch, off: off}
	})
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	res := newMultiResult(sources, opt)
	for _, js := range done {
		for _, j := range js {
			res.add(j.off, j.out)
		}
	}
	res.Stats.Elapsed = wall
	res.WorkerBusy = busy
	return res
}

// MSPBFSPerSocket runs the paper's "MS-PBFS (one per socket)" variant
// (Section 5): one parallel multi-source instance per CPU socket, each with
// opt.Workers/sockets workers and fully socket-local state, processing
// disjoint batches concurrently. The paper uses this variant to measure the
// cost of parallelizing across all NUMA nodes — its closeness to plain
// MS-PBFS in Figure 11 shows the algorithm is mostly resilient to NUMA
// effects.
func MSPBFSPerSocket(g *graph.Graph, sources []int, sockets int, opt Options) *MultiResult {
	sockets = max(sockets, 1)
	instOpt := opt
	instOpt.Workers = max(opt.workers()/sockets, 1)
	return runInstances(sources, opt, sockets, func() (batchFunc, func()) {
		e := NewMSPBFSEngine(g, instOpt)
		return e.runBatch, e.Close
	})
}

// SMSPBFSAll runs one SMS-PBFS per source, all cores on each, reusing a
// single engine — the execution model the paper uses for SMS-PBFS in its
// parallel comparison ("SMS-PBFS analyzes all sources one single source at
// a time, utilizing all cores", Section 5.3). The per-source results are
// merged; levels, if recorded, are per source.
func SMSPBFSAll(g *graph.Graph, sources []int, repr StateRepr, opt Options) *MultiResult {
	e := NewSMSPBFSEngine(g, repr, opt)
	defer e.Close()

	res := &MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}
	e.pool.ResetBusy()
	start := time.Now()
	for i, s := range sources {
		r := e.Run(s)
		res.VisitedStates += r.VisitedVertices
		res.Stats.Sources++
		res.Stats.Iterations = append(res.Stats.Iterations, r.Stats.Iterations...)
		if opt.RecordLevels {
			res.Levels[i] = r.Levels
		}
	}
	res.Stats.Elapsed = time.Since(start)
	res.WorkerBusy = e.pool.Busy()
	return res
}

// RandomSources picks count random source vertices with at least one
// neighbor, the selection rule of the Graph500 benchmark and the paper's
// evaluation ("randomly selected from the graph"). Sampling is with
// replacement, deterministic in seed.
func RandomSources(g *graph.Graph, count int, seed uint64) []int {
	n := g.NumVertices()
	out := make([]int, 0, count)
	if n == 0 {
		return out
	}
	x := seed
	if x == 0 {
		x = 0x853c49e6748fea9b
	}
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545f4914f6cdd1d
	}
	// Bounded rejection sampling: bail out if the graph is essentially
	// edgeless rather than spinning forever.
	for attempts := 0; len(out) < count && attempts < 100*count+1000; attempts++ {
		v := int(next() % uint64(n))
		if g.Degree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}
