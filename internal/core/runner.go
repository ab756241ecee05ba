package core

import (
	"sync"
	"time"

	"repro/internal/graph"
)

// MSPBFSPerSocket runs the paper's "MS-PBFS (one per socket)" variant
// (Section 5): one parallel multi-source instance per CPU socket, each with
// opt.Workers/sockets workers and fully socket-local state, processing
// disjoint batches concurrently. The paper uses this variant to measure the
// cost of parallelizing across all NUMA nodes — its closeness to plain
// MS-PBFS in Figure 11 shows the algorithm is mostly resilient to NUMA
// effects.
func MSPBFSPerSocket(g *graph.Graph, sources []int, sockets int, opt Options) *MultiResult {
	if sockets < 1 {
		sockets = 1
	}
	workers := opt.workers()
	perSocket := workers / sockets
	if perSocket < 1 {
		perSocket = 1
	}
	perBatch := SourcesPerBatch(opt.batchWords())

	type job struct {
		batch  []int
		offset int
	}
	var jobs []job
	for off := 0; off < len(sources); off += perBatch {
		hi := off + perBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		jobs = append(jobs, job{batch: sources[off:hi], offset: off})
	}

	res := &MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}

	start := time.Now()
	jobCh := make(chan job)
	results := make([]*MultiResult, sockets)
	var wg sync.WaitGroup
	for s := 0; s < sockets; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			instOpt := opt
			instOpt.Workers = perSocket
			e := NewMSPBFSEngine(g, instOpt)
			defer e.Close()
			local := &MultiResult{}
			if opt.RecordLevels {
				local.Levels = make([][]int32, len(sources))
			}
			for j := range jobCh {
				e.runBatch(j.batch, j.offset, local)
			}
			results[s] = local
		}(s)
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	wall := time.Since(start)

	for _, local := range results {
		if local == nil {
			continue
		}
		res.VisitedStates += local.VisitedStates
		res.Stats.Sources += local.Stats.Sources
		res.Stats.Iterations = append(res.Stats.Iterations, local.Stats.Iterations...)
		if opt.RecordLevels {
			for i, lv := range local.Levels {
				if lv != nil {
					res.Levels[i] = lv
				}
			}
		}
	}
	res.Stats.Elapsed = wall
	return res
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
