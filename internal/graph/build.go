package graph

import "fmt"

func checkEdge(n int, u, v VertexID) {
	if int(u) >= n || int(v) >= n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range for %d vertices", u, v, n))
	}
}

// FromEdges builds the CSR graph with n vertices from an edge list, which
// it only reads. Edges may come in either orientation and any order;
// self-loops and duplicates are dropped; an out-of-range endpoint panics.
// The edges are flattened into one endpoint buffer, the only arc-sized
// array the build allocates, and FromPairs builds the graph inside it.
func FromEdges(n int, edges []Edge) *Graph {
	pairs := make([]VertexID, 2*len(edges))
	for i, e := range edges {
		pairs[2*i], pairs[2*i+1] = e.U, e.V
	}
	return FromPairs(n, pairs)
}

// blockBits sets the block of FromPairs' two-pass grouping: the first pass
// deals the edges into blocks of 1<<blockBits consecutive smaller
// endpoints, the second sorts each block by vertex, so neither pass keeps
// more than a few KB of bucket heads.
const blockBits = 10

// FromPairs is FromEdges over a flat endpoint buffer — edge i is
// {pairs[2i], pairs[2i+1]} — which it takes ownership of: the CSR is built
// inside the buffer, with no second arc array and no comparison sort, and
// the result's adjacency is a prefix of it. The caller must not touch
// pairs afterwards. Besides the result's offsets the build allocates only
// a second counter array of the same size and one array of bucket heads
// (groupByMin). It panics on a negative n, an odd buffer, one longer than
// MaxEndpoints or an out-of-range endpoint.
//
// Row v of the result is v's lower neighbors (< v) followed by its upper
// ones (> v), each list ascending. The steps (docs/ALGORITHMS.md, CSR
// construction):
//  1. canonicalise every edge to (min, max), dropping loops, into records
//     packed at the front of the buffer (canonicalise);
//  2. group the records by their smaller endpoint in place (groupByMin);
//  3. keep the larger endpoints, the upper lists, in the first half, and
//     transpose them by ascending source into the second half: the lower
//     lists, each sorted with its duplicates adjacent (transposeUpper);
//  4. deduplicate the lower lists to the front of the buffer (dedupLower);
//  5. move each lower list right to its row's start, last row first
//     (placeLower);
//  6. transpose the lower lists in place by ascending source into the
//     rows' upper halves (fillUpper).
//
// Every vertex has two 32-bit counters, low[v] and high[v], that prefix-sum
// side by side; step 6 turns low into the result's offsets, and high is
// dropped.
func FromPairs(n int, pairs []VertexID) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if len(pairs)%2 != 0 {
		panic("graph: odd endpoint buffer")
	}
	if uint64(len(pairs)) > MaxEndpoints {
		panic(fmt.Sprintf("graph: %d endpoints, more than one build addresses (%d)", len(pairs), uint64(MaxEndpoints)))
	}
	low, high := make([]uint32, n+1), make([]uint32, n+1)
	k := canonicalise(n, pairs, low, high)
	groupByMin(pairs[:2*k], low)
	transposeUpper(pairs[:2*k], low, high)
	lower := dedupLower(pairs[:2*k], low, high)
	placeLower(pairs[:2*lower], low, high)
	fillUpper(pairs[:2*lower], low, high)
	return &Graph{Offsets: low, Adjacency: pairs[: 2*lower : 2*lower]}
}

// canonicalise rewrites every non-loop edge of pairs as the record
// (min, max), packed from the front in input order, and returns the record
// count k. Writes trail reads, so no pair is overwritten unread. It leaves
// low[v] holding where v's records (v the smaller endpoint) start among
// the k and high[v] where v's lower list (v the larger endpoint) starts
// among the k: the counts of both, summed in one prefix pass.
func canonicalise(n int, pairs []VertexID, low, high []uint32) int {
	k := 0
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		checkEdge(n, u, v)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		rec := pairs[2*k : 2*k+2 : 2*k+2]
		rec[0], rec[1] = u, v
		k++
		low[u+1]++
		high[v+1]++
	}
	high = high[:len(low)] // one length: the checks on low cover high
	for v := 1; v < len(low); v++ {
		low[v] += low[v-1]
		high[v] += high[v-1]
	}
	return k
}

// groupByMin permutes the records of recs so that they come in ascending
// order of their smaller endpoint, whose groups start at starts: an
// in-place MSD radix permutation (American flag sort), first on the block
// of the smaller endpoint, then, inside each block, on the endpoint
// itself. Splitting the key keeps either pass's bucket heads — and on the
// second pass the block's records — in cache, where one pass over n
// buckets would miss on almost every record.
func groupByMin(recs []VertexID, starts []uint32) {
	n := len(starts) - 1
	blocks := (n + 1<<blockBits - 1) >> blockBits
	next := make([]uint32, max(blocks, min(n, 1<<blockBits)))
	flagPermute(recs, starts, next, 0, n, blockBits)
	for lo := 0; lo < n; lo += 1 << blockBits {
		flagPermute(recs, starts, next, lo, min(lo+1<<blockBits, n), 0)
	}
}

// flagPermute is one American-flag pass over the records whose smaller
// endpoint u lies in [lo, hi): bucket t takes u in [lo + t<<shift,
// lo + (t+1)<<shift), whose records start at starts[lo + t<<shift], and
// next[t] is its first slot not yet final. Every step swaps the record at
// a scanned slot of bucket t into the next slot of its own bucket s — or,
// for s = t, into next[t], which never passes the scan — where it is
// final; the record it displaces waits at the scanned slot for a later
// round. Each step places one record, so the rounds end after len(recs)/2
// steps in all, and a step's swap does not wait for the one before it:
// their cache misses overlap, where following each displaced record along
// its cycle would serialise them.
func flagPermute(recs []VertexID, starts, next []uint32, lo, hi int, shift uint) {
	buckets := (hi - lo + 1<<shift - 1) >> shift
	if buckets < 2 {
		return
	}
	for t := 0; t < buckets; t++ {
		next[t] = starts[lo+t<<shift]
	}
	base := VertexID(lo)
	for placed := false; !placed; {
		placed = true
		for t := 0; t < buckets; t++ {
			end := int(starts[min(lo+(t+1)<<shift, hi)])
			for i := int(next[t]); i < end; i++ {
				r := recs[2*i : 2*i+2 : 2*i+2]
				u, v := r[0], r[1]
				s := (u - base) >> shift
				j := int(next[s])
				next[s] = uint32(j + 1)
				q := recs[2*j : 2*j+2 : 2*j+2]
				r[0], r[1] = q[0], q[1]
				q[0], q[1] = u, v
			}
			placed = placed && int(next[t]) == end
		}
	}
}

// transposeUpper keeps the larger endpoint of every grouped record, record
// i's at recs[i] (i ≤ 2i+1, so every write lands on a record already read):
// the first half of recs is now every vertex's upper list, grouped by the
// vertex, unsorted, duplicates included. Visiting the vertices u in
// ascending order and appending u to the lower list of every v in u's upper
// list fills the second half with the lower lists, each ascending with its
// duplicates adjacent; the two halves do not overlap. high[v] advances
// from the start of v's lower list to its end.
func transposeUpper(recs []VertexID, low, high []uint32) {
	k := len(recs) / 2
	for i := 0; i < k; i++ {
		recs[i] = recs[2*i+1]
	}
	upper, lower := recs[:k], recs[k:]
	n := len(low) - 1
	start := 0
	for u := 0; u < n; u++ {
		end := int(low[u+1])
		for _, v := range upper[start:end] {
			lower[high[v]] = VertexID(u)
			high[v]++
		}
		start = end
	}
}

// dedupLower drops the duplicates from the lower lists in the second half
// of recs, writing the survivors back to back from recs[0]. The write
// position never passes the number of entries read, which is at most half
// of recs, so it stays in the upper lists' dead half. It returns the
// survivors' count — the number of distinct edges — and leaves low[v+1]
// holding v's distinct lower neighbors and high[v+1] its distinct upper
// neighbors, counted from the lower lists they appear in; low[0] is 0.
func dedupLower(recs []VertexID, low, high []uint32) int {
	k := len(recs) / 2
	lower := recs[k:]
	n := len(low) - 1
	high = high[:len(low)]
	w, start, kept := 0, 0, uint32(0)
	for v := 0; v < n; v++ {
		// high[v] is read for the last time; the pair becomes v-1's
		// counts, whose upper count only v and later vertices add to.
		end := int(high[v])
		low[v], high[v] = kept, 0
		row := lower[start:end]
		start = end
		from := w
		for i, u := range row {
			if i == 0 || u != row[i-1] {
				recs[w] = u
				w++
				high[u+1]++
			}
		}
		kept = uint32(w - from)
	}
	low[n], high[n] = kept, 0
	return w
}

// placeLower moves every deduplicated lower list from its packed position
// at the front of arcs to the start of its row, last row first. A row
// starts at or after its packed list (the rows before it add their upper
// halves), so a move only writes at or right of what it reads, below the
// rows already placed and above the lists still to move.
func placeLower(arcs []VertexID, low, high []uint32) {
	n := len(low) - 1
	high = high[:len(low)]
	rowEnd, listEnd := len(arcs), len(arcs)/2
	for v := n - 1; v >= 0; v-- {
		lo, hi := int(low[v+1]), int(high[v+1])
		rowStart, listStart := rowEnd-lo-hi, listEnd-lo
		copy(arcs[rowStart:rowStart+lo], arcs[listStart:listEnd])
		rowEnd, listEnd = rowStart, listStart
	}
}

// fillUpper visits the vertices v in ascending order and appends v to the
// upper half of row u for every u in v's lower list, now at the start of
// row v: each upper half is filled ascending, and only upper halves are
// written. low[u+1] is row u's fill cursor: set at u's own visit, once its
// counts are read, to the end of its lower list, it ends as the end of the
// row, so low ends as the result's offsets.
func fillUpper(arcs []VertexID, low, high []uint32) {
	n := len(low) - 1
	high = high[:len(low)]
	row := uint32(0)
	for v := 0; v < n; v++ {
		lo, hi := low[v+1], high[v+1]
		low[v+1] = row + lo
		for _, u := range arcs[row : row+lo] {
			arcs[low[u+1]] = VertexID(v)
			low[u+1]++
		}
		row += lo + hi
	}
}

// Relabel returns a new graph in which every vertex v of g has been renamed
// to newID[v]. newID must be a permutation of [0, n); Relabel panics
// otherwise, as a non-permutation silently corrupts the graph.
//
// g must be symmetric (u in N(v) iff v in N(u), as Validate checks and
// FromPairs guarantees): new row newID[u] is filled by visiting the new
// ids nv in ascending order and appending nv for every u in the old
// neighbor list of nv, which reaches exactly u's neighbors, already
// sorted, only when each arc has its reverse. On an asymmetric CSR the
// fill produces the relabeled transpose: where a vertex's in-degree
// differs from its out-degree some row receives more or fewer arcs than
// its degree and Relabel panics (naming the first such row, or with an
// index out of range when the excess runs past the array); where the
// degrees all agree, as on a directed cycle, it returns that transpose
// laid over g's degrees, not a relabeling of g. Validate is the symmetry
// proof, not Relabel.
//
// g is only read and the result shares no storage with it; the result's
// adjacency is allocated at exactly its arc count.
func Relabel(g *Graph, newID []VertexID) *Graph {
	n := g.NumVertices()
	if len(newID) != n {
		panic(fmt.Sprintf("graph: relabel permutation has %d entries for %d vertices", len(newID), n))
	}
	// n in-range ids cover [0, n) unless one repeats, and then some id is
	// never written: its inv entry stays 0, whose new id is another one.
	inv := make([]VertexID, n)
	for v, id := range newID {
		if int(id) >= n {
			panic("graph: relabel mapping is not a permutation")
		}
		inv[id] = VertexID(v)
	}
	for id, v := range inv {
		if newID[v] != VertexID(id) {
			panic("graph: relabel mapping is not a permutation")
		}
	}

	// The offsets are their own fill cursors: cursor[nv] (= offsets[nv+1])
	// starts at row nv's start and, once the row is filled, is its end.
	offsets := make([]uint32, n+1)
	cursor := offsets[1:]
	arcs := uint32(0)
	for nv, v := range inv {
		cursor[nv] = arcs
		arcs += uint32(g.Degree(int(v)))
	}
	adj := make([]VertexID, arcs)
	for nv, v := range inv {
		for _, u := range g.Neighbors(int(v)) {
			nu := newID[u]
			adj[cursor[nu]] = VertexID(nv)
			cursor[nu]++
		}
	}
	end := uint32(0)
	for nv, v := range inv {
		start := end
		end += uint32(g.Degree(int(v)))
		if cursor[nv] != end {
			panic(fmt.Sprintf("graph: relabel of an asymmetric graph: new row %d received %d arcs for a degree of %d",
				nv, cursor[nv]-start, end-start))
		}
	}
	return &Graph{Offsets: offsets, Adjacency: adj}
}
