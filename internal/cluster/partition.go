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

import "repro/internal/sched"

// partStride is the vertex alignment of shard borders. Borders fall on
// 64-vertex (one bitmap word) boundaries — the same border-alignment
// discipline the kernels apply to page ownership — so a future
// vertex-bitmap exchange never splits a word across owners.
const partStride = 64

// partition is the 1D contiguous vertex partition of an n-vertex graph over
// shards, whose tail shards may own empty ranges. The coordinator and every
// shard derive the identical slices from (n, shards), so only those two
// numbers cross the wire.
func partition(n, shards int) sched.Stripes { return sched.NewStripes(n, shards, partStride) }
