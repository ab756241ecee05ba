package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Metrics aggregates one coordinator's cluster-serving statistics. All
// fields are safe for concurrent update; bfsd exports them per
// cluster-backed graph as the bfsd_cluster_* rows of its metric table.
type Metrics struct {
	// FrontierBytes counts delta-frontier bytes shipped between shards
	// (post-codec); FrontierRawBytes is what the same exchanges would have
	// cost as uncompressed bitset slabs. Their ratio is the cluster-wide
	// compression ratio.
	FrontierBytes    atomic.Int64
	FrontierRawBytes atomic.Int64

	// RPCs counts coordinator→shard calls; RPCSeconds is their latency
	// distribution (ns recorded, seconds exported).
	RPCs       atomic.Int64
	RPCSeconds metrics.Histogram

	// Queries and QueryErrors count cluster batch traversals and their
	// failures (shard-down, barrier timeouts).
	Queries     atomic.Int64
	QueryErrors atomic.Int64
}

// observeRPC records one coordinator→shard call.
func (m *Metrics) observeRPC(d time.Duration) {
	if m == nil {
		return
	}
	m.RPCs.Add(1)
	m.RPCSeconds.RecordDuration(d)
}
