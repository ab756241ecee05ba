package main

import (
	"fmt"
	"sort"
	"sync"

	msbfs "repro"
)

// answer holds the kind-specific fields of one query's reply, expected or
// received.
type answer struct {
	visited   int64
	ecc       int32
	dists     []int32
	closeness float64
	reachable bool
	count     int64
}

// answerFromLevels derives what the daemon must reply to q from a textbook
// BFS level array of q.source.
func answerFromLevels(q *query, levels []int32) answer {
	var a answer
	var sum int64
	for _, l := range levels {
		if l == msbfs.NoLevel {
			continue
		}
		a.visited++
		sum += int64(l)
		if l > a.ecc {
			a.ecc = l
		}
		if int(l) <= q.hops {
			a.count++
		}
	}
	switch q.kind {
	case "bfs":
		for _, t := range q.targets {
			a.dists = append(a.dists, levels[t])
		}
	case "closeness":
		a.closeness = closeness(len(levels), sum, a.visited)
	case "reachability":
		a.reachable = levels[q.targets[0]] != msbfs.NoLevel
	}
	return a
}

// matches reports whether got answers q as want does; only the fields of
// q's kind are compared, as only those are served.
func (want *answer) matches(q *query, got *answer) bool {
	switch q.kind {
	case "bfs":
		if want.visited != got.visited || want.ecc != got.ecc || len(want.dists) != len(got.dists) {
			return false
		}
		for i := range want.dists {
			if want.dists[i] != got.dists[i] {
				return false
			}
		}
		return true
	case "closeness":
		return closeEnough(want.closeness, got.closeness)
	case "reachability":
		return want.reachable == got.reachable
	case "khop":
		return want.count == got.count
	}
	return false
}

// atLeast is the check every reply of the ingest workload gets at once:
// edges are only ever added, so a reply for any later version reaches at
// least what the seed graph's oracle reached. Exact answers for a sample
// are re-derived after the run (ingestOracle).
func (seed *answer) atLeast(q *query, got *answer) bool {
	switch q.kind {
	case "bfs":
		return got.visited >= seed.visited && len(got.dists) == len(seed.dists)
	case "reachability":
		return got.reachable || !seed.reachable
	case "khop":
		return got.count >= seed.count
	}
	return true
}

// poolOracle runs Graph.SequentialBFS for every query of the pool, on all
// CPUs (it is untimed, but the driver's run budget is not).
func poolOracle(g *msbfs.Graph, pool []query, workers int) []answer {
	want := make([]answer, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				want[i] = answerFromLevels(&pool[i], g.SequentialBFS(pool[i].source).Levels)
			}
		}(w)
	}
	wg.Wait()
	return want
}

// checkLevels compares a kernel's level rows for sources against
// SequentialBFS, row by row.
func checkLevels(g *msbfs.Graph, sources []int, rows [][]int32) error {
	if len(rows) != len(sources) {
		return fmt.Errorf("oracle: %d level rows for %d sources", len(rows), len(sources))
	}
	for i, s := range sources {
		want := g.SequentialBFS(s).Levels
		for v, l := range want {
			if rows[i][v] != l {
				return fmt.Errorf("oracle: source %d vertex %d: level %d, want %d", s, v, rows[i][v], l)
			}
		}
	}
	return nil
}

// versionedEdges is the harness's own record of one accepted ingest: the
// version the daemon's reply named and the edges that POST carried.
type versionedEdges struct {
	version uint64
	edges   [][2]uint32
}

// sampledReply is one read reply kept for exact re-derivation.
type sampledReply struct {
	query   int // index into the pool
	version uint64
	got     answer
}

// ingestOracle re-derives the sampled replies of the ingest workload: for
// each, the graph as of the reply's graph_version is the seed graph plus
// every logged edge of a version not above it. The traversal is the
// harness's own queue BFS over (CSR neighbours + logged extras), sharing
// no code with the kernels or the overlay. Returns the number of replies
// that differ.
func ingestOracle(g *msbfs.Graph, pool []query, log []versionedEdges, replies []sampledReply) int {
	sort.Slice(log, func(i, j int) bool { return log[i].version < log[j].version })
	sort.Slice(replies, func(i, j int) bool { return replies[i].version < replies[j].version })
	n := g.NumVertices()
	extra := make([][]uint32, n)
	levels := make([]int32, n)
	queue := make([]uint32, 0, n)
	applied, wrong := 0, 0
	for _, rep := range replies {
		for applied < len(log) && log[applied].version <= rep.version {
			for _, e := range log[applied].edges {
				if e[0] != e[1] {
					extra[e[0]] = append(extra[e[0]], e[1])
					extra[e[1]] = append(extra[e[1]], e[0])
				}
			}
			applied++
		}
		q := &pool[rep.query]
		for i := range levels {
			levels[i] = msbfs.NoLevel
		}
		levels[q.source] = 0
		queue = append(queue[:0], uint32(q.source))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			visit := func(u uint32) {
				if levels[u] == msbfs.NoLevel {
					levels[u] = levels[v] + 1
					queue = append(queue, u)
				}
			}
			for _, u := range g.Neighbors(int(v)) {
				visit(u)
			}
			for _, u := range extra[v] {
				visit(u)
			}
		}
		want := answerFromLevels(q, levels)
		if !want.matches(q, &rep.got) {
			wrong++
		}
	}
	return wrong
}
