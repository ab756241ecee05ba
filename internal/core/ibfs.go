package core

import (
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// IBFS is a CPU adaptation of the iBFS algorithm (Liu et al., SIGMOD 2016),
// the GPU-based multi-source comparator of the paper's Section 5.3. Like
// MS-BFS it runs k concurrent BFSs over k-wide bitset states, but instead of
// scanning the whole vertex array it maintains a sparse joint frontier
// queue (JFQ) holding exactly the vertices with at least one active
// frontier bit. On GPUs the JFQ is built contention-free with warp voting
// instructions; on CPUs — as the paper observes — those primitives have no
// equivalent, so the JFQ is assembled from per-worker output queues, and
// that insertion traffic is precisely the overhead the paper's array-based
// design avoids.
//
// The implementation is top-down only (the published iBFS kernel), with the
// GroupBy-style sharing coming from the joint queue: a vertex reached by
// many of the k BFSs in the same iteration is expanded once.
func IBFS(g *graph.Graph, sources []int, opt Options) *MultiResult {
	requireNoOverlay(opt, "IBFS")
	n := g.NumVertices()
	words := opt.batchWords()

	seen := bitset.NewState(n, words)
	frontierBits := bitset.NewState(n, words)
	nextBits := bitset.NewState(n, words)
	inJFQ := bitset.NewBitmap(n) // dedupe for JFQ insertion
	return runBatches(sources, opt, func(batch []int, _ int) batchOut {
		return ibfsBatch(g, batch, opt, seen, frontierBits, nextBits, inJFQ)
	})
}

func ibfsBatch(g *graph.Graph, batch []int, opt Options,
	seen, frontierBits, nextBits *bitset.State, inJFQ *bitset.Bitmap) batchOut {
	n := g.NumVertices()
	k := len(batch)
	workers := opt.workers()
	rec := newIterRecorder(opt, "ibfs", k, nil, nil)
	var levels [][]int32
	if opt.RecordLevels {
		levels = newLevelRows(n, k)
	}

	start := time.Now()
	seen.ZeroRange(0, n)
	frontierBits.ZeroRange(0, n)
	nextBits.ZeroRange(0, n)
	clearBitmap(inJFQ)

	jfq := make([]graph.VertexID, 0, k)
	var visited int64
	for i, s := range batch {
		seen.Set(s, i)
		frontierBits.Set(s, i)
		visited++
		if levels != nil {
			levels[i][s] = 0
		}
		if !inJFQ.Get(s) {
			inJFQ.Set(s)
			jfq = append(jfq, graph.VertexID(s))
		}
	}

	localOut := make([][]graph.VertexID, workers)
	for w := range localOut {
		localOut[w] = make([]graph.VertexID, 0, 1024)
	}

	depth := int32(0)
	const chunkSize = 32

	for len(jfq) > 0 {
		depth++
		iterStart := time.Now()

		// Current members leave the membership bitmap before expansion so
		// that a frontier vertex which receives new bits for another BFS
		// this iteration can re-enter as a candidate; otherwise those bits
		// would be stranded in the next plane without ever being resolved.
		for _, v := range jfq {
			inJFQ.Clear(int(v))
		}

		// Expand: push frontier bits of every JFQ vertex to its neighbors.
		var cursor int64
		var mu sync.Mutex
		scn := make([]padCounter, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					mu.Lock()
					lo := cursor
					cursor += chunkSize
					mu.Unlock()
					if lo >= int64(len(jfq)) {
						break
					}
					hi := lo + chunkSize
					if hi > int64(len(jfq)) {
						hi = int64(len(jfq))
					}
					for _, v := range jfq[lo:hi] {
						row := frontierBits.Row(int(v))
						nbrs := g.Neighbors(int(v))
						scn[w].v += int64(len(nbrs))
						for _, nb := range nbrs {
							if nextBits.AtomicOrVertex(int(nb), row) {
								// First writer to add bits enqueues the
								// vertex; AtomicSet's report makes the
								// insertion exactly-once.
								if inJFQ.AtomicSet(int(nb)) {
									localOut[w] = append(localOut[w], nb)
								}
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Resolve: compute newly seen bits for the candidate vertices and
		// build the next JFQ, dropping vertices with no new bits.
		candidates := candidates(localOut)
		for _, v := range jfq {
			frontierBits.ZeroVertex(int(v)) // clear old frontier sparsely
		}
		jfq = jfq[:0]
		var updated int64
		for _, v := range candidates {
			inJFQ.Clear(int(v))
			nRow := nextBits.Row(int(v))
			sRow := seen.Row(int(v))
			anyNew := uint64(0)
			for i := range nRow {
				nw := nRow[i] &^ sRow[i]
				if nw != nRow[i] {
					nRow[i] = nw //bfs:singlewriter candidate resolution runs on the coordinating goroutine after wg.Wait
				}
				sRow[i] |= nw //bfs:singlewriter candidate resolution runs on the coordinating goroutine after wg.Wait
				anyNew |= nw
			}
			if anyNew == 0 {
				continue
			}
			for i := range nRow {
				updated += int64(onesCount(nRow[i]))
			}
			jfq = append(jfq, v)
			if levels != nil {
				for wi, w := range nRow {
					for ; w != 0; w &= w - 1 {
						levels[wi*64+trailingZeros64(w)][v] = depth
					}
				}
			}
		}
		// Swap bit planes: survivors' next bits become frontier bits. Both
		// planes are exact at this point — the resolve loop stored masked
		// values (zero for dropped candidates) and the old frontier rows
		// were cleared sparsely above.
		frontierBits, nextBits = nextBits, frontierBits
		for w := range localOut {
			localOut[w] = localOut[w][:0]
		}

		visited += updated
		rec.record(obs.IterationRecord{
			Iteration:        int(depth),
			Reason:           dirTopDownKernel,
			FrontierVertices: int64(len(jfq)),
			UpdatedStates:    updated,
			ScannedEdges:     sumCounters(scn),
			Visited:          visited,
			Duration:         time.Since(iterStart),
		})
	}

	rec.finish()
	return batchOut{levels: levels, visited: visited,
		stat: metrics.RunStat{Elapsed: time.Since(start), Sources: k, Iterations: rec.stats}}
}

// candidates flattens the per-worker output queues.
func candidates(localOut [][]graph.VertexID) []graph.VertexID {
	total := 0
	for _, q := range localOut {
		total += len(q)
	}
	out := make([]graph.VertexID, 0, total)
	for _, q := range localOut {
		out = append(out, q...)
	}
	return out
}
