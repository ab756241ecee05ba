package core

import (
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// MSBFS is the sequential multi-source BFS of Then et al. (VLDB 2015),
// reimplemented from Listings 1 and 2 of the paper. Each batch of up to
// 64*BatchWords sources is traversed concurrently on a single goroutine
// with the traversals implicitly merged through the k-wide bitset algebra.
// It is the baseline whose scaling limitations (Figures 2, 3, 11, 12)
// motivate MS-PBFS. Workers in opt is ignored; use MSBFSPerCore for the
// "one sequential instance per core" execution mode.
func MSBFS(g *graph.Graph, sources []int, opt Options) *MultiResult {
	n := g.NumVertices()
	words := opt.batchWords()
	perBatch := SourcesPerBatch(words)

	res := &MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}

	eng := opt.engine()
	seen := eng.borrowState(n, words)
	frontier := eng.borrowState(n, words)
	next := eng.borrowState(n, words)
	defer func() {
		eng.returnState(seen)
		eng.returnState(frontier)
		eng.returnState(next)
	}()

	for off := 0; off < len(sources); off += perBatch {
		hi := off + perBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		msbfsBatch(g, sources[off:hi], off, opt, eng, seen, frontier, next, res)
	}
	return res
}

// msbfsBatch runs one sequential batch. The three state arrays are reused
// across batches; they are fully re-zeroed at batch start.
//
//bfs:singlewriter MS-BFS is the sequential baseline of Then et al.; one goroutine owns all state
func msbfsBatch(g *graph.Graph, batch []int, batchOffset int, opt Options, eng *Engine,
	seen, frontier, next *bitset.State, res *MultiResult) {
	n := g.NumVertices()
	ov := opt.Overlay
	k := len(batch)
	if k == 0 {
		return
	}
	rec := newIterRecorder(opt, "ms-bfs", k, nil)
	var levels [][]int32
	if opt.RecordLevels {
		levels = make([][]int32, k)
		for i := range levels {
			// NoLevel fill doubles as the level rows' arena scrub.
			levels[i] = eng.borrowLevels(n) //bfs:arena-held rows ride in the returned MultiResult; the caller frees them with Engine.ReleaseLevels
			for v := range levels[i] {
				levels[i][v] = NoLevel
			}
		}
	}

	start := time.Now()
	seen.ZeroRange(0, n)
	frontier.ZeroRange(0, n)
	next.ZeroRange(0, n)

	activeMask := seen.FullMask(k)
	var visited int64
	frontVertices := int64(0)
	frontEdges := int64(0)
	for i, s := range batch {
		if !seen.Any(s) {
			frontVertices++
			frontEdges += int64(g.Degree(s))
			if ov != nil {
				frontEdges += int64(ov.ExtraDegree(s))
			}
		}
		seen.Set(s, i)
		frontier.Set(s, i)
		visited++
		if levels != nil {
			levels[i][s] = 0
		}
		if opt.OnVisit != nil {
			opt.OnVisit(0, batchOffset+i, s, 0)
		}
	}
	unexploredEdges := int64(len(g.Adjacency)) + ov.Arcs() - frontEdges

	bottomUp := opt.Direction == BottomUpOnly
	depth := int32(0)
	var dirReason string
	words := seen.Stride()
	acc := make([]uint64, words)
	live := make([]uint64, words)
	// nextDirty tracks whether the buffer about to serve as next may hold
	// stale bits (it does after a bottom-up iteration, whose frontier
	// cannot be cleared inline). The two-phase top-down masks stale bits
	// with &^seen; the direct variant relies on a clean buffer instead.
	nextDirty := false

	emit := func(v int, nRow []uint64) {
		for wi, w := range nRow {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				i := base + trailingZeros64(w)
				if levels != nil {
					levels[i][v] = depth
				}
				if opt.OnVisit != nil {
					opt.OnVisit(0, batchOffset+i, v, int(depth))
				}
			}
		}
	}

	for frontVertices > 0 {
		if opt.MaxDepth > 0 && int(depth) >= opt.MaxDepth {
			break
		}
		depth++
		iterStart := time.Now()
		bottomUp, dirReason = decideDirection(opt, bottomUp,
			frontVertices, frontEdges, unexploredEdges, n)

		var scanned, updated int64
		frontVertices, frontEdges = 0, 0
		for i := range live {
			live[i] = 0
		}

		if bottomUp {
			// Listing 2: bottom-up MS-BFS traversal.
			for u := 0; u < n; u++ {
				sRow := seen.Row(u)
				if coversMask(sRow, activeMask) {
					if next.Any(u) {
						next.ZeroVertex(u)
					}
					continue
				}
				for i := range acc {
					acc[i] = 0
				}
				for _, v := range g.Neighbors(u) {
					scanned++
					fRow := frontier.Row(int(v))
					for i := range acc {
						acc[i] |= fRow[i]
					}
					if !opt.DisableEarlyExit && coversPair(sRow, acc, activeMask) {
						break
					}
				}
				if ov != nil && !(!opt.DisableEarlyExit && coversPair(sRow, acc, activeMask)) {
					for _, v := range ov.Extra(u) {
						scanned++
						fRow := frontier.Row(int(v))
						for i := range acc {
							acc[i] |= fRow[i]
						}
						if !opt.DisableEarlyExit && coversPair(sRow, acc, activeMask) {
							break
						}
					}
				}
				nRow := next.Row(u)
				anyNew := uint64(0)
				for i := range acc {
					nw := acc[i] &^ sRow[i]
					nRow[i] = nw
					sRow[i] |= nw
					anyNew |= nw
				}
				if anyNew == 0 {
					continue
				}
				for i := range nRow {
					updated += int64(onesCount(nRow[i]))
					live[i] |= nRow[i]
				}
				frontVertices++
				frontEdges += int64(g.Degree(u))
				if ov != nil {
					frontEdges += int64(ov.ExtraDegree(u))
				}
				if levels != nil || opt.OnVisit != nil {
					emit(u, nRow)
				}
			}
		} else if opt.SinglePhaseTopDown {
			// The "direct" top-down variant of Then et al.: update seen and
			// next inline per edge. Correct only sequentially — two threads
			// doing read-modify-write on seen[n] would race.
			if nextDirty {
				next.ZeroRange(0, n)
			}
			for v := 0; v < n; v++ {
				if !frontier.Any(v) {
					continue
				}
				fRow := frontier.Row(v)
				nbrs := g.Neighbors(v)
				scanned += int64(len(nbrs))
				for _, nb := range nbrs {
					sRow := seen.Row(int(nb))
					nRow := next.Row(int(nb))
					for i := range fRow {
						nw := fRow[i] &^ sRow[i]
						if nw == 0 {
							continue
						}
						sRow[i] |= nw
						nRow[i] |= nw
					}
				}
				if ov != nil {
					for _, nb := range ov.Extra(v) {
						scanned++
						sRow := seen.Row(int(nb))
						nRow := next.Row(int(nb))
						for i := range fRow {
							nw := fRow[i] &^ sRow[i]
							if nw == 0 {
								continue
							}
							sRow[i] |= nw
							nRow[i] |= nw
						}
					}
				}
			}
			// Resolve the new frontier: next holds exactly the bits newly
			// discovered this iteration; clear the old frontier in the
			// same pass.
			for v := 0; v < n; v++ {
				if frontier.Any(v) {
					frontier.ZeroVertex(v)
				}
				if !next.Any(v) {
					continue
				}
				nRow := next.Row(v)
				for i := range nRow {
					updated += int64(onesCount(nRow[i]))
					live[i] |= nRow[i]
				}
				frontVertices++
				frontEdges += int64(g.Degree(v))
				if ov != nil {
					frontEdges += int64(ov.ExtraDegree(v))
				}
				if levels != nil || opt.OnVisit != nil {
					emit(v, nRow)
				}
			}
		} else {
			// Listing 1: two-phase top-down.
			for v := 0; v < n; v++ {
				if !frontier.Any(v) {
					continue
				}
				nbrs := g.Neighbors(v)
				scanned += int64(len(nbrs))
				for _, nb := range nbrs {
					next.OrVertex(int(nb), frontier, v)
				}
				if ov != nil {
					for _, nb := range ov.Extra(v) {
						scanned++
						next.OrVertex(int(nb), frontier, v)
					}
				}
			}
			for v := 0; v < n; v++ {
				if frontier.Any(v) {
					frontier.ZeroVertex(v)
				}
				if !next.Any(v) {
					continue
				}
				nRow := next.Row(v)
				sRow := seen.Row(v)
				anyNew := uint64(0)
				for i := range nRow {
					nw := nRow[i] &^ sRow[i]
					if nw != nRow[i] {
						nRow[i] = nw
					}
					sRow[i] |= nw
					anyNew |= nw
				}
				if anyNew == 0 {
					continue
				}
				for i := range nRow {
					updated += int64(onesCount(nRow[i]))
					live[i] |= nRow[i]
				}
				frontVertices++
				frontEdges += int64(g.Degree(v))
				if ov != nil {
					frontEdges += int64(ov.ExtraDegree(v))
				}
				if levels != nil || opt.OnVisit != nil {
					emit(v, nRow)
				}
			}
		}

		visited += updated
		unexploredEdges -= frontEdges
		if unexploredEdges < 0 {
			unexploredEdges = 0
		}
		// Shrink the active mask to BFSs that still have a frontier (same
		// refinement as MS-PBFS; see the liveBits comment there).
		copy(activeMask, live)
		rec.record(obs.IterationRecord{
			Iteration:        int(depth),
			BottomUp:         bottomUp,
			Reason:           dirReason,
			FrontierVertices: frontVertices,
			UpdatedStates:    updated,
			ScannedEdges:     scanned,
			Visited:          visited,
			Duration:         time.Since(iterStart),
		})
		nextDirty = bottomUp // bottom-up leaves the old frontier uncleared
		frontier, next = next, frontier
	}

	rec.finish()
	res.VisitedStates += visited
	res.Stats.Merge(metrics.RunStat{Elapsed: time.Since(start), Sources: k, Iterations: rec.stats})
	if levels != nil {
		for i := range levels {
			res.Levels[batchOffset+i] = levels[i]
		}
	}
}

// MSBFSPerCore runs the MS-BFS execution model the paper measures in its
// parallel comparisons: opt.Workers independent sequential MS-BFS
// instances, each pulling whole 64*BatchWords-source batches from a shared
// workload. This is the only way the sequential algorithm can use multiple
// cores; it needs Workers separate state allocations (the memory blow-up of
// Figure 3) and at least Workers full batches to utilize the machine (the
// utilization cliff of Figure 2).
//
// The returned RunStat's Elapsed is the wall-clock time of the whole run;
// per-instance times are summed into nothing — GTEPS is edges/wall-clock,
// matching how the paper evaluates this mode.
func MSBFSPerCore(g *graph.Graph, sources []int, opt Options) *MultiResult {
	workers := opt.workers()
	words := opt.batchWords()
	perBatch := SourcesPerBatch(words)

	// Pre-slice the workload into batches.
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
	results := make([]*MultiResult, workers)
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	// Per-instance options: sequential semantics, no nested parallelism.
	instOpt := opt
	instOpt.Workers = 1

	eng := opt.engine()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := g.NumVertices()
			// Each instance borrows its own state triple — the arena still
			// pays the Figure 3 memory blow-up while a run is live, but
			// back-to-back runs stop re-allocating it.
			seen := eng.borrowState(n, words)
			frontier := eng.borrowState(n, words)
			next := eng.borrowState(n, words)
			defer func() {
				eng.returnState(seen)
				eng.returnState(frontier)
				eng.returnState(next)
			}()
			local := &MultiResult{}
			if opt.RecordLevels {
				local.Levels = make([][]int32, len(sources))
			}
			for j := range jobCh {
				t0 := time.Now()
				msbfsBatch(g, j.batch, j.offset, instOpt, eng, seen, frontier, next, local)
				busy[w] += time.Since(t0)
			}
			results[w] = local
		}(w)
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
	res.WorkerBusy = busy
	return res
}
