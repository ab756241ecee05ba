package core

import (
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
	requireNoOverlay(opt, "MSBFS")
	return runBatches(sources, opt, openMSBFS(g, opt, false))
}

// MSBFSDirect is MSBFS with the "direct" top-down variant of Then et al.:
// seen and next are updated inline while scanning the frontier instead of
// in a separate second phase. It saves one pass over the vertex array but
// writes seen per edge rather than per vertex; the ablation benchmarks
// measure the trade-off. There is no parallel counterpart — the two-phase
// structure is what makes MS-PBFS synchronization-free, so a direct
// parallel variant would need per-edge CAS on seen as well.
func MSBFSDirect(g *graph.Graph, sources []int, opt Options) *MultiResult {
	requireNoOverlay(opt, "MSBFSDirect")
	return runBatches(sources, opt, openMSBFS(g, opt, true))
}

// MSBFSPerCore runs the MS-BFS execution model the paper measures in its
// parallel comparisons: opt.Workers independent sequential MS-BFS
// instances, each pulling whole 64*BatchWords-source batches from a shared
// workload. This is the only way the sequential algorithm can use multiple
// cores; it needs Workers separate state allocations (the memory blow-up of
// Figure 3) and at least Workers full batches to utilize the machine (the
// utilization cliff of Figure 2).
func MSBFSPerCore(g *graph.Graph, sources []int, opt Options) *MultiResult {
	requireNoOverlay(opt, "MSBFSPerCore")
	return runInstances(sources, opt, opt.workers(), func() (batchFunc, func()) {
		return openMSBFS(g, opt, false), func() {}
	})
}

// openMSBFS opens one sequential MS-BFS instance: it allocates the state
// triple the instance reuses across its batches (each batch re-zeroes it)
// and returns the batch runner.
func openMSBFS(g *graph.Graph, opt Options, direct bool) batchFunc {
	n, words := g.NumVertices(), opt.batchWords()
	seen := bitset.NewState(n, words)
	frontier := bitset.NewState(n, words)
	next := bitset.NewState(n, words)
	return func(batch []int, _ int) batchOut {
		return msbfsBatch(g, batch, opt, direct, seen, frontier, next)
	}
}

// msbfsBatch runs one sequential batch, with the direct top-down when
// direct is set. The three state arrays are reused across batches; they
// are fully re-zeroed at batch start.
//
//bfs:singlewriter MS-BFS is the sequential baseline of Then et al.; one goroutine owns all state
func msbfsBatch(g *graph.Graph, batch []int, opt Options, direct bool,
	seen, frontier, next *bitset.State) batchOut {
	n := g.NumVertices()
	k := len(batch)
	rec := newIterRecorder(opt, "ms-bfs", k, nil)
	var levels [][]int32
	if opt.RecordLevels {
		levels = newLevelRows(n, k)
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
		}
		seen.Set(s, i)
		frontier.Set(s, i)
		visited++
		if levels != nil {
			levels[i][s] = 0
		}
	}
	unexploredEdges := int64(len(g.Adjacency)) - frontEdges

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

	// found folds the new bits of v into the level's counters and records
	// their depth.
	var updated int64
	found := func(v int, nRow []uint64) {
		for i := range nRow {
			updated += int64(onesCount(nRow[i]))
			live[i] |= nRow[i]
		}
		frontVertices++
		frontEdges += int64(g.Degree(v))
		if levels == nil {
			return
		}
		for wi, w := range nRow {
			for ; w != 0; w &= w - 1 {
				levels[wi*64+trailingZeros64(w)][v] = depth
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

		var scanned int64
		updated, frontVertices, frontEdges = 0, 0, 0
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
				nRow := next.Row(u)
				anyNew := uint64(0)
				for i := range acc {
					nw := acc[i] &^ sRow[i]
					nRow[i] = nw
					sRow[i] |= nw
					anyNew |= nw
				}
				if anyNew != 0 {
					found(u, nRow)
				}
			}
		} else if direct {
			// The direct top-down of Then et al.: update seen and next
			// inline per edge. Correct only sequentially — two threads
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
			}
			// Resolve the new frontier: next holds exactly the bits newly
			// discovered this iteration; clear the old frontier in the
			// same pass.
			for v := 0; v < n; v++ {
				if frontier.Any(v) {
					frontier.ZeroVertex(v)
				}
				if next.Any(v) {
					found(v, next.Row(v))
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
				if anyNew != 0 {
					found(v, nRow)
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
	return batchOut{levels: levels, visited: visited,
		stat: metrics.RunStat{Elapsed: time.Since(start), Sources: k, Iterations: rec.stats}}
}
