package core

import (
	"math/bits"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// BeamerVariant selects one of the three sequential direction-optimizing
// BFS implementations compared in Figure 10.
type BeamerVariant int

const (
	// BeamerGAPBS mirrors the GAP Benchmark Suite implementation: a
	// sparse queue in top-down, a dense bitmap in bottom-up, with
	// queue<->bitmap conversion at every direction switch.
	BeamerGAPBS BeamerVariant = iota
	// BeamerSparse is the paper's own reimplementation using the same
	// graph and chunk-skipping machinery as SMS-PBFS (bit) but a sparse
	// vector for the top-down queues.
	BeamerSparse
	// BeamerDense is the same with a dense bit array for the top-down
	// queues, making the conversion at direction switches free.
	BeamerDense
)

// String returns the figure label of the variant.
func (v BeamerVariant) String() string {
	switch v {
	case BeamerGAPBS:
		return "Beamer (GAPBS)"
	case BeamerSparse:
		return "Beamer (sparse)"
	case BeamerDense:
		return "Beamer (dense)"
	default:
		return "Beamer (?)"
	}
}

// algoName is the flight-record kernel label; constant per variant so
// the disabled-tracing path never builds a string.
func (v BeamerVariant) algoName() string {
	switch v {
	case BeamerSparse:
		return "beamer/sparse"
	case BeamerDense:
		return "beamer/dense"
	default:
		return "beamer/gapbs"
	}
}

// Beamer runs the selected sequential direction-optimizing BFS variant.
// Only Direction, Alpha, Beta, RecordLevels and CollectIterStats of opt are
// honored; the algorithm is single-threaded by definition (Section 5.2).
func Beamer(g *graph.Graph, source int, variant BeamerVariant, opt Options) *Result {
	requireNoOverlay(opt, "Beamer")
	n := g.NumVertices()
	var levels []int32
	if opt.RecordLevels {
		levels = newLevelRows(n, 1)[0]
	}
	rec := newIterRecorder(opt, variant.algoName(), 1, nil)

	// Total degree sum for the alpha heuristic.
	edgesTotal := int64(len(g.Adjacency))

	seen := bitset.NewBitmap(n)
	front := bitset.NewBitmap(n) // dense frontier (bottom-up and dense variant)
	next := bitset.NewBitmap(n)
	var queue, nextQueue []graph.VertexID // sparse frontier

	start := time.Now()
	seen.Set(source)
	if levels != nil {
		levels[source] = 0
	}
	var visited int64 = 1

	sparseMode := variant != BeamerDense
	if sparseMode {
		queue = append(queue, graph.VertexID(source))
	} else {
		front.Set(source)
	}
	// Beamer has no overlay (requireNoOverlay above), so the dirInputs
	// carrier seeds with zero overlay arcs; decisions still route through
	// the one shared decideDirection entry point.
	var dir dirInputs
	dir.seed(edgesTotal, 0, 1, int64(g.Degree(source)))

	bottomUp := opt.Direction == BottomUpOnly
	depth := int32(0)
	var dirReason string

	for dir.frontVertices > 0 {
		depth++
		iterStart := time.Now()

		// Direction decision (Beamer's alpha/beta heuristic).
		bottomUp, dirReason = dir.decide(opt, bottomUp, n)
		frontVertices, frontEdges := dir.frontVertices, dir.frontEdges

		var scanned, updated int64
		if bottomUp {
			// Convert sparse queue to dense frontier if needed.
			if sparseMode && len(queue) > 0 {
				clearBitmap(front)
				for _, v := range queue {
					front.Set(int(v))
				}
				queue = queue[:0]
			}
			clearBitmap(next)
			var updatedDegree int64
			updated, scanned, updatedDegree = beamerBottomUpStep(g, seen, front, next, levels, depth)
			front, next = next, front
			frontVertices = updated
			frontEdges = updatedDegree
			if opt.Direction == Auto && float64(frontVertices) < float64(n)/opt.beta() {
				// Will switch to top-down next iteration; materialize the
				// sparse queue and frontier edge count now.
				if sparseMode {
					queue = queue[:0]
					for v := front.NextSetBit(0); v >= 0; v = front.NextSetBit(v + 1) {
						queue = append(queue, graph.VertexID(v))
						frontEdges += int64(g.Degree(v))
					}
				}
			}
		} else {
			frontEdges = 0
			if sparseMode {
				nextQueue = nextQueue[:0]
				for _, v := range queue {
					for _, u := range g.Neighbors(int(v)) {
						scanned++
						if !seen.Get(int(u)) {
							seen.Set(int(u))
							if levels != nil {
								levels[u] = depth
							}
							nextQueue = append(nextQueue, u)
							frontEdges += int64(g.Degree(int(u)))
						}
					}
				}
				queue, nextQueue = nextQueue, queue
				updated = int64(len(queue))
			} else {
				clearBitmap(next)
				words := front.Words()
				for wi, w := range words {
					if w == 0 {
						continue // 64-vertex chunk skip
					}
					base := wi << 6
					for ; w != 0; w &= w - 1 {
						v := base + bits.TrailingZeros64(w)
						for _, u := range g.Neighbors(v) {
							scanned++
							if !seen.Get(int(u)) {
								seen.Set(int(u))
								if levels != nil {
									levels[u] = depth
								}
								next.Set(int(u))
								updated++
								frontEdges += int64(g.Degree(int(u)))
							}
						}
					}
				}
				front, next = next, front
			}
			frontVertices = updated
		}

		visited += updated
		dir.frontVertices, dir.frontEdges = frontVertices, frontEdges
		dir.unexploredEdges -= frontEdges
		if dir.unexploredEdges < 0 {
			dir.unexploredEdges = 0
		}
		rec.record(obs.IterationRecord{
			Iteration:        int(depth),
			BottomUp:         bottomUp,
			Reason:           dirReason,
			FrontierVertices: dir.frontVertices,
			UpdatedStates:    updated,
			ScannedEdges:     scanned,
			Visited:          visited,
			Duration:         time.Since(iterStart),
			FrontierEdges:    dir.frontEdges,
			UnexploredEdges:  dir.unexploredEdges,
		})
	}

	rec.finish()
	res := &Result{Levels: levels, VisitedVertices: visited}
	res.Stats = metrics.RunStat{Elapsed: time.Since(start), Sources: 1, Iterations: rec.stats}
	return res
}

// beamerBottomUpStep performs one bottom-up iteration shared by all
// variants: every unseen vertex scans its neighbor list for a frontier
// member and joins the next frontier on the first hit.
func beamerBottomUpStep(g *graph.Graph, seen, front, next *bitset.Bitmap, levels []int32, depth int32) (updated, scanned, updatedDegree int64) {
	n := g.NumVertices()
	seenWords := seen.Words()
	//bfs:hot Beamer bottom-up sweep: runs per chunk per iteration, must not allocate
	for wi, w := range seenWords {
		if w == ^uint64(0) {
			continue // all 64 vertices seen: chunk skip
		}
		base := wi << 6
		limit := n - base
		if limit > 64 {
			limit = 64
		}
		for off := 0; off < limit; off++ {
			if w&(1<<uint(off)) != 0 {
				continue
			}
			u := base + off
			for _, v := range g.Neighbors(u) { //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
				scanned++
				if front.Get(int(v)) { //bfs:bounds-ok inlined bitmap word indexing; Bitmap sized to n
					seen.Set(u) //bfs:bounds-ok inlined bitmap word indexing; Bitmap sized to n
					next.Set(u) //bfs:bounds-ok inlined bitmap word indexing; Bitmap sized to n
					if levels != nil {
						levels[u] = depth //bfs:bounds-ok levels is caller-sized to n; written once per discovered vertex
					}
					updated++
					updatedDegree += int64(g.Degree(u)) //bfs:bounds-ok inlined CSR offset pair; n = len(Offsets)-1
					break
				}
			}
		}
	}
	return updated, scanned, updatedDegree
}

// clearBitmap zeroes a bitmap in place.
//
//bfs:singlewriter the Beamer variants are sequential by definition (Section 5.2)
func clearBitmap(b *bitset.Bitmap) {
	words := b.Words()
	for i := range words {
		words[i] = 0
	}
}
