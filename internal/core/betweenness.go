package core

import (
	"repro/internal/graph"
	"repro/internal/sched"
)

// BrandesBetweenness computes betweenness centrality with Brandes'
// algorithm over the given sources (all vertices for exact values, a random
// sample for the standard approximation). Sources are processed in parallel
// on the engine's pooled workers — one BFS with shortest-path counting per
// source, the classic embarrassingly parallel formulation; only Workers and
// Engine of opt are honored. For undirected graphs each pair is counted
// from both endpoints when all vertices are sources, so the result is
// halved, following Brandes' convention.
func BrandesBetweenness(g *graph.Graph, sources []int, opt Options) []float64 {
	n := g.NumVertices()
	workers := opt.workers()
	if len(sources) == 0 {
		return make([]float64, n)
	}
	eng := opt.engine()
	pool := eng.borrowPool(workers)
	defer eng.returnPool(pool)

	partial := make([][]float64, workers)
	sigma := make([][]float64, workers)
	dist := make([][]int32, workers)
	delta := make([][]float64, workers)
	order := make([][]graph.VertexID, workers)
	for w := 0; w < workers; w++ {
		partial[w] = make([]float64, n)
		sigma[w] = make([]float64, n)
		dist[w] = make([]int32, n)
		delta[w] = make([]float64, n)
		order[w] = make([]graph.VertexID, 0, n)
	}

	// One source per task: source costs vary wildly (component sizes), so
	// the pool's stealing does the load balancing the old channel feed did.
	tq := sched.CreateTasks(len(sources), 1, workers)
	pool.Run(tq, true, func(w int, r sched.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			brandesSource(g, sources[i], sigma[w], dist[w], delta[w], order[w][:0], partial[w])
		}
	})

	out := make([]float64, n)
	for w := range partial {
		for v, c := range partial[w] {
			out[v] += c
		}
	}
	for v := range out {
		out[v] /= 2 // undirected: each pair counted from both endpoints
	}
	return out
}

// brandesSource accumulates one source's dependency contributions into acc.
// All scratch slices have length n and arbitrary prior contents.
func brandesSource(g *graph.Graph, s int, sigma []float64, dist []int32, delta []float64, order []graph.VertexID, acc []float64) {
	for i := range dist {
		dist[i] = -1
		sigma[i] = 0
		delta[i] = 0
	}
	dist[s] = 0
	sigma[s] = 1
	order = append(order, graph.VertexID(s))
	for head := 0; head < len(order); head++ {
		v := order[head]
		dv := dist[v]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				order = append(order, u)
			}
			if dist[u] == dv+1 {
				sigma[u] += sigma[v]
			}
		}
	}
	// Dependency accumulation in reverse BFS order.
	for i := len(order) - 1; i > 0; i-- {
		w := order[i]
		coeff := (1 + delta[w]) / sigma[w]
		dw := dist[w]
		for _, v := range g.Neighbors(int(w)) {
			if dist[v] == dw-1 {
				delta[v] += sigma[v] * coeff
			}
		}
		acc[w] += delta[w]
	}
}
