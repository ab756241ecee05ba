package gen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// checkDrawn returns an error naming the argument outside the domain of
// a generator drawing about n·avgDegree/2 edges into one buffer (LDBC,
// Uniform, Web, Collaboration; PowerLaw at its least degree): n in
// [1, 2^32], and n·avgDegree endpoints plus the extra a generator may
// draw past its target within one CSR build, or else an ErrTooManyArcs.
func checkDrawn(n, avgDegree int, extra uint64) error {
	if n < 1 || n > 1<<32 {
		return fmt.Errorf("n %d outside [1, 2^32]", n)
	}
	if uint64(avgDegree) > (graph.MaxEndpoints-extra)/uint64(n) {
		return fmt.Errorf("n %d at degree %d draws more endpoints than one CSR build addresses: %w", n, avgDegree, graph.ErrTooManyArcs)
	}
	return nil
}

// closureFraction is the share of an LDBC graph's edges created by
// friend-of-friend closure (triangle closing) rather than preferential
// attachment.
const closureFraction = 0.3

// LDBC generates an LDBC-like social graph of n persons with about
// avgDegree friendships per person. The LDBC SNB data generator produces
// graphs with community structure, a power-law degree distribution, and
// high clustering through friend-of-friend closure; this generator
// reproduces those three characteristics (the original Java generator is
// not available offline — see DESIGN.md §3). The published LDBC 100
// graph has about 5 edges per vertex, which GenerateSocial matches.
//
//  1. Persons are assigned to ~sqrt(n) communities with sizes
//     following a power law.
//  2. Most edges attach preferentially within the community (power-law
//     degrees, strong locality), a minority connect across communities
//     (small-world shortcuts).
//  3. closureFraction of the edges are friend-of-friend closures,
//     producing the high clustering coefficient of social networks.
func LDBC(n, avgDegree int, seed uint64) *graph.Graph {
	if n <= 0 {
		return graph.FromEdges(0, nil)
	}
	r := newRNG(seed)
	numComm := max(int(math.Sqrt(float64(n))), 1)

	// Power-law community sizes via a Zipf-ish split.
	weights := make([]float64, numComm)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 0.9)
		total += weights[i]
	}
	community := make([]int32, n)
	commMembers := make([][]graph.VertexID, numComm)
	v := 0
	for c := 0; c < numComm && v < n; c++ {
		size := int(math.Round(weights[c] / total * float64(n)))
		if size < 1 {
			size = 1
		}
		for i := 0; i < size && v < n; i++ {
			community[v] = int32(c)
			commMembers[c] = append(commMembers[c], graph.VertexID(v))
			v++
		}
	}
	for ; v < n; v++ { // remainder into the last community
		community[v] = int32(numComm - 1)
		commMembers[numComm-1] = append(commMembers[numComm-1], graph.VertexID(v))
	}

	targetEdges := int64(n) * int64(avgDegree) / 2

	// Preferential attachment within communities: track degree+1 weights
	// with a simple repeated-endpoint list (Barabási–Albert style). The
	// list is the attachment edges in order, so the closure edges append
	// to it and it becomes graph.FromPairs' endpoint buffer.
	endpointPool := make([]graph.VertexID, 0, targetEdges*2)

	closureEdges := int64(float64(targetEdges) * closureFraction)
	paEdges := targetEdges - closureEdges

	// Keep a sampled adjacency for closure; bounded per vertex to keep
	// memory linear.
	const sampleCap = 8
	sampled := make([][]graph.VertexID, n)
	noteEdge := func(u, w graph.VertexID) {
		if len(sampled[u]) < sampleCap {
			sampled[u] = append(sampled[u], w)
		}
		if len(sampled[w]) < sampleCap {
			sampled[w] = append(sampled[w], u)
		}
	}

	for i := int64(0); i < paEdges; i++ {
		u := graph.VertexID(r.intn(n))
		var w graph.VertexID
		crossCommunity := r.float64() < 0.1
		if crossCommunity || len(endpointPool) == 0 {
			w = graph.VertexID(r.intn(n))
		} else {
			// Prefer attaching to a popular vertex in u's community: draw
			// from the endpoint pool and fall back to a community member.
			w = endpointPool[r.intn(len(endpointPool))]
			if community[w] != community[u] && r.float64() < 0.8 {
				members := commMembers[community[u]]
				w = members[r.intn(len(members))]
			}
		}
		if u == w {
			continue
		}
		endpointPool = append(endpointPool, u, w)
		noteEdge(u, w)
	}

	// Friend-of-friend closure: pick a vertex, connect two of its sampled
	// neighbors. A bounded miss budget prevents spinning on graphs too
	// sparse for triangles.
	misses := int64(0)
	for i := int64(0); i < closureEdges && misses < 4*closureEdges+100; {
		u := graph.VertexID(r.intn(n))
		nb := sampled[u]
		if len(nb) < 2 {
			misses++
			continue
		}
		a := nb[r.intn(len(nb))]
		c := nb[r.intn(len(nb))]
		if a == c {
			misses++
			continue
		}
		endpointPool = append(endpointPool, a, c)
		noteEdge(a, c)
		i++
	}

	return graph.FromPairs(n, endpointPool)
}

// PowerLaw's degree distribution: twitter's follower graph has an
// exponent around 2.0-2.3, and the sampled degrees lie in
// [minPowerLawDegree, n/8].
const (
	powerLawExponent  = 2.1
	minPowerLawDegree = 2
)

// PowerLaw generates an undirected graph on n vertices whose degree
// sequence follows a truncated power law, wired with the configuration
// model (random stub matching): the twitter-like stand-in. It reproduces
// the extreme hub skew of the twitter follower graph, the characteristic
// that stresses labeling and scheduling in the paper's evaluation. It
// panics when the sampled degrees sum past one CSR build (powerLaw).
func PowerLaw(n int, seed uint64) *graph.Graph {
	g, err := powerLaw(n, seed, graph.MaxEndpoints)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return g
}

// powerLaw is PowerLaw with at most most stubs. It draws the degrees
// twice from one RNG state, the first time only summed, so a sum past
// most is an ErrTooManyArcs returned before the stub list is made.
func powerLaw(n int, seed uint64, most uint64) (*graph.Graph, error) {
	r := newRNG(seed)
	minD := minPowerLawDegree
	maxD := max(n/8, minD)

	// Sample degrees by inverse transform on the truncated power law.
	alpha := float64(powerLawExponent)
	lo := math.Pow(float64(minD), 1-alpha)
	hi := math.Pow(float64(maxD), 1-alpha)
	degree := func(r *rng) int {
		d := int(math.Pow(lo+r.float64()*(hi-lo), 1/(1-alpha)))
		return min(max(d, minD), maxD)
	}
	sum, total := *r, uint64(0)
	for range n {
		if total += uint64(degree(&sum)); total > most {
			return nil, fmt.Errorf("powerlaw n %d seed %d samples more than %d stubs: %w", n, seed, most, graph.ErrTooManyArcs)
		}
	}
	stubs := make([]graph.VertexID, 0, total)
	for v := range n {
		for range degree(r) {
			stubs = append(stubs, graph.VertexID(v))
		}
	}
	// Shuffle stubs and pair them up: consecutive stubs are an edge, and
	// an odd last stub is left out.
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	return graph.FromPairs(n, stubs[:len(stubs)&^1]), nil
}

// webWindow is the id window within which most of a web graph's links
// fall: web graphs have strong URL locality, producing long host-local
// chains and a larger effective diameter than social graphs.
const webWindow = 64

// Web generates a uk-2005-like web-crawl graph on n vertices with about
// avgDegree average degree (uk-2005 has ~2m/n ≈ 40): most edges connect
// vertices with nearby ids (host locality), a small fraction are global
// links, and a few hub pages collect many in-links. Compared to Kronecker
// graphs it has a visibly larger diameter and lower skew, matching the
// role uk-2005 plays in the paper's Table 1 (lowest GTEPS of all graphs).
func Web(n, avgDegree int, seed uint64) *graph.Graph {
	if n == 0 {
		return graph.FromEdges(0, nil)
	}
	r := newRNG(seed)
	targetEdges := int64(n) * int64(avgDegree) / 2

	numHubs := n / 1000
	if numHubs < 1 {
		numHubs = 1
	}
	// One edge per draw; graph.FromPairs drops the self-loops.
	pairs := make([]graph.VertexID, 2*max(targetEdges, 0))
	for i := range targetEdges {
		u := r.intn(n)
		var w int
		switch f := r.float64(); {
		case f < 0.80: // host-local link
			w = u + 1 + r.intn(webWindow)
			if w >= n {
				w = u - 1 - r.intn(webWindow)
				if w < 0 {
					w = (u + 1) % n
				}
			}
		case f < 0.90: // link to a hub page
			w = r.intn(numHubs) * (n / numHubs)
		default: // global link
			w = r.intn(n)
		}
		pairs[2*i], pairs[2*i+1] = graph.VertexID(u), graph.VertexID(w)
	}
	return graph.FromPairs(n, pairs)
}

// Collaboration's casts have 2 to maxCast members, avgClique on average.
// The cast that reaches the edge target may overshoot it by all its
// pairs, collabOvershoot endpoints: checkDrawn's extra for Collaboration.
const (
	avgClique       = 8
	maxCast         = 2*avgClique - 1
	collabOvershoot = maxCast * (maxCast - 1)
)

// Collaboration generates a hollywood-2011-like union-of-cliques graph on
// n vertices with about avgDegree average degree (hollywood-2011: ~2m/n ≈
// 115): repeatedly sample a "cast" (clique) of vertices with
// popularity-biased membership and connect all pairs, as hollywood-2011
// links actors who appeared in a movie together. This produces the very
// high density and clustering of the co-starring graph.
func Collaboration(n, avgDegree int, seed uint64) *graph.Graph {
	if n < 2 { // no cast of distinct members
		return graph.FromPairs(n, nil)
	}
	r := newRNG(seed)
	targetEdges := int64(n) * int64(avgDegree) / 2
	// Popularity bias: reuse a pool of previously cast actors.
	pool := make([]graph.VertexID, 0, 1<<16)
	var pairs []graph.VertexID
	cast := make([]graph.VertexID, 0, avgClique*3)
	for int64(len(pairs)) < 2*targetEdges {
		size := 2 + r.intn(maxCast-1)
		cast = cast[:0]
		for len(cast) < size {
			var a graph.VertexID
			if len(pool) > 0 && r.float64() < 0.5 {
				a = pool[r.intn(len(pool))]
			} else {
				a = graph.VertexID(r.intn(n))
			}
			cast = append(cast, a)
		}
		sort.Slice(cast, func(i, j int) bool { return cast[i] < cast[j] })
		for i := 0; i < len(cast); i++ {
			if i > 0 && cast[i] == cast[i-1] {
				continue
			}
			for j := i + 1; j < len(cast); j++ {
				if cast[j] == cast[i] {
					continue
				}
				pairs = append(pairs, cast[i], cast[j])
			}
			if len(pool) < cap(pool) {
				pool = append(pool, cast[i])
			} else {
				pool[r.intn(len(pool))] = cast[i]
			}
		}
	}
	return graph.FromPairs(n, pairs)
}

// Uniform generates an Erdős–Rényi G(n, m) random graph with approximately
// avgDegree*n/2 edges. It serves as a no-skew control in tests.
func Uniform(n, avgDegree int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.FromPairs(n, nil)
	}
	r := newRNG(seed)
	target := int64(n) * int64(max(avgDegree, 0)) / 2
	// One edge per draw; graph.FromPairs drops the self-loops.
	pairs := make([]graph.VertexID, 2*target)
	for i := 0; i < len(pairs); i += 2 {
		pairs[i], pairs[i+1] = graph.VertexID(r.intn(n)), graph.VertexID(r.intn(n))
	}
	return graph.FromPairs(n, pairs)
}
