package core

import (
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// QueueBFS is a parallel single-source BFS in the style of Yasui et al. and
// the other "sparse queue school" algorithms the paper compares against
// (Section 2.1, Section 6): the frontier is a sparse vertex queue, each
// worker consumes chunks of it and appends newly discovered vertices to a
// worker-local next queue (batch insertion), and the per-iteration output
// queues are concatenated for the next iteration. Discovery is synchronized
// through an atomic seen bitmap. A Beamer-style bottom-up phase with dense
// bitmaps handles the hot iterations.
//
// Its role in this repository is to represent the contention and conversion
// costs that the paper's array-based approach eliminates.
func QueueBFS(g *graph.Graph, source int, opt Options) *Result {
	requireNoHooks(opt, "QueueBFS")
	n := g.NumVertices()
	workers := opt.workers()
	rec := newIterRecorder(opt, "queue-bfs", 1, nil)
	eng := opt.engine()
	var levels []int32
	if opt.RecordLevels {
		levels = eng.borrowLevels(n) //bfs:arena-held row rides in the returned Result; the caller frees it with Engine.ReleaseLevels
	}

	start := time.Now()
	seen := eng.borrowBitmap(n)
	dense := eng.borrowBitmap(n) // frontier bitmap for bottom-up
	denseNext := eng.borrowBitmap(n)
	defer func() {
		eng.returnBitmap(seen)
		eng.returnBitmap(dense)
		eng.returnBitmap(denseNext)
	}()

	queue := make([]graph.VertexID, 0, 1024)
	localNext := make([][]graph.VertexID, workers)
	for w := range localNext {
		localNext[w] = make([]graph.VertexID, 0, 1024)
	}

	seen.Set(source)
	if levels != nil {
		levels[source] = 0
	}
	queue = append(queue, graph.VertexID(source))

	var visited int64 = 1
	frontVertices := int64(1)
	frontEdges := int64(g.Degree(source))
	unexploredEdges := int64(len(g.Adjacency)) - frontEdges
	bottomUp := opt.Direction == BottomUpOnly
	denseMode := false
	depth := int32(0)
	var dirReason string

	// chunkSize is the number of frontier entries a worker claims at once
	// (batch removal, Agarwal et al. style).
	const chunkSize = 64

	for frontVertices > 0 {
		depth++
		iterStart := time.Now()
		bottomUp, dirReason = decideDirection(opt, bottomUp,
			frontVertices, frontEdges, unexploredEdges, n)

		var scanned, updated, updatedDeg int64
		if bottomUp {
			// Convert sparse queue to dense bitmap on entry.
			if !denseMode {
				clearBitmap(dense)
				for _, v := range queue {
					dense.Set(int(v))
				}
				queue = queue[:0]
				denseMode = true
			}
			clearBitmap(denseNext)
			updated, scanned, updatedDeg = parallelBottomUp(g, seen, dense, denseNext, levels, depth, workers)
			dense, denseNext = denseNext, dense
			frontVertices = updated
			frontEdges = updatedDeg
		} else {
			// Convert dense bitmap back to a sparse queue on entry.
			if denseMode {
				queue = queue[:0]
				for v := dense.NextSetBit(0); v >= 0; v = dense.NextSetBit(v + 1) {
					queue = append(queue, graph.VertexID(v))
				}
				denseMode = false
			}
			var cursor int64
			var mu sync.Mutex
			counters := make([]padCounter, workers)
			degCounters := make([]padCounter, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					out := localNext[w][:0]
					var myScanned int64
					for {
						mu.Lock()
						lo := cursor
						cursor += chunkSize
						mu.Unlock()
						if lo >= int64(len(queue)) {
							break
						}
						hi := lo + chunkSize
						if hi > int64(len(queue)) {
							hi = int64(len(queue))
						}
						for _, v := range queue[lo:hi] {
							for _, u := range g.Neighbors(int(v)) {
								myScanned++
								if seen.AtomicSet(int(u)) {
									if levels != nil {
										levels[u] = depth
									}
									out = append(out, u)
									degCounters[w].v += int64(g.Degree(int(u)))
								}
							}
						}
					}
					localNext[w] = out
					counters[w].v = myScanned
				}(w)
			}
			wg.Wait()
			queue = queue[:0]
			for w := range localNext {
				queue = append(queue, localNext[w]...)
			}
			scanned = sumCounters(counters)
			updated = int64(len(queue))
			updatedDeg = sumCounters(degCounters)
			frontVertices = updated
			frontEdges = updatedDeg
		}

		visited += updated
		unexploredEdges -= frontEdges
		if unexploredEdges < 0 {
			unexploredEdges = 0
		}
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
	}

	rec.finish()
	res := &Result{Levels: levels, VisitedVertices: visited}
	res.Stats = metrics.RunStat{Elapsed: time.Since(start), Sources: 1, Iterations: rec.stats}
	return res
}

// parallelBottomUp is the dense bottom-up step shared with QueueBFS: the
// vertex range is split statically across workers; each unseen vertex scans
// for a frontier neighbor. Writes are range-partitioned so only the seen
// bitmap's word boundaries need care — ranges are aligned to 64 vertices.
func parallelBottomUp(g *graph.Graph, seen, front, next *bitset.Bitmap, levels []int32, depth int32, workers int) (updated, scanned, updatedDeg int64) {
	n := g.NumVertices()
	per := (n + workers - 1) / workers
	per = (per + 63) &^ 63 // align ranges to bitmap words
	upd := make([]padCounter, workers)
	scn := make([]padCounter, workers)
	deg := make([]padCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				if seen.Get(u) {
					continue
				}
				for _, v := range g.Neighbors(u) {
					scn[w].v++
					if front.Get(int(v)) {
						seen.Set(u)
						next.Set(u)
						if levels != nil {
							levels[u] = depth
						}
						upd[w].v++
						deg[w].v += int64(g.Degree(u))
						break
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return sumCounters(upd), sumCounters(scn), sumCounters(deg)
}
