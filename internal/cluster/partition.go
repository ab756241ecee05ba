// Package cluster implements the sharded multi-process BFS mode of bfsd:
// a coordinator partitions a CSR graph into contiguous 1D vertex ranges,
// ships each range to a shard process, and drives MS-PBFS level-
// synchronously across the shards, which exchange bitset-compressed delta
// frontiers peer-to-peer each iteration.
//
// The design follows the two distributed-memory BFS papers in PAPERS.md:
// Buluç/Madduri (arXiv 1104.4518) for the 1D vertex partitioning with a
// per-level frontier exchange, and Buluç/Beamer et al. (arXiv 1705.04590)
// for compressing the exchanged frontier bitmaps to cut communication
// volume. Within a shard the traversal is the single-process MS-PBFS
// engine from internal/core over the shard's own rows, one level per
// coordinator step, recycled through a core.Engine arena. See
// docs/CLUSTER.md for the wire protocol and failure semantics.
package cluster

import "repro/internal/numa"

// partStride is the vertex alignment of shard borders. Borders fall on
// 64-vertex (one bitmap word) boundaries — the same border-alignment
// discipline internal/numa applies to page ownership — so a future
// vertex-bitmap exchange never splits a word across owners.
const partStride = 64

// Partition is a 1D contiguous vertex partition of an n-vertex graph over
// a number of shards. All shards derive the identical partition from
// (n, shards), so only those two numbers cross the wire.
type Partition struct {
	n      int
	per    int   // vertices per shard (stride-aligned, last shard short)
	bounds []int // len shards+1; shard s owns [bounds[s], bounds[s+1])
}

// MakePartition computes the partition of [0, n) over the given number of
// shards. Shards at the tail may own empty ranges when n is small.
func MakePartition(n, shards int) Partition {
	if shards < 1 {
		shards = 1
	}
	b := numa.AlignedRanges(n, shards, partStride)
	per := b[1]
	if shards > 1 {
		// For multi-shard partitions the uniform range width is the first
		// border (possibly clamped to n when one shard covers everything).
		per = (n + shards - 1) / shards
		if rem := per % partStride; rem != 0 {
			per += partStride - rem
		}
	}
	if per < 1 {
		per = 1
	}
	return Partition{n: n, per: per, bounds: b}
}

// N returns the total vertex count.
func (p Partition) N() int { return p.n }

// NumShards returns the shard count.
func (p Partition) NumShards() int { return len(p.bounds) - 1 }

// Owner returns the shard owning global vertex v.
func (p Partition) Owner(v int) int {
	s := v / p.per
	if max := p.NumShards() - 1; s > max {
		s = max
	}
	return s
}

// Range returns the global vertex range [lo, hi) owned by shard s.
func (p Partition) Range(s int) (lo, hi int) { return p.bounds[s], p.bounds[s+1] }

// Len returns the number of vertices shard s owns.
func (p Partition) Len(s int) int { return p.bounds[s+1] - p.bounds[s] }
