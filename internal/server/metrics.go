package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
	"repro/internal/metrics"
)

// dyngraphStats keeps the render function signature local.
type dyngraphStats = dyngraph.Stats

// Metrics aggregates one coalescer's serving statistics. All fields are
// safe for concurrent update; the /metrics endpoint renders a snapshot.
type Metrics struct {
	Requests atomic.Int64 // admitted requests
	Rejected atomic.Int64 // ErrQueueFull fast failures
	Canceled atomic.Int64 // requests whose context ended while waiting

	Batches     atomic.Int64 // multi-source traversals executed
	BatchErrors atomic.Int64 // batches failed by the backend (cluster shard down)
	Sources     atomic.Int64 // sources served across all batches
	Edges       atomic.Int64 // Graph500 traversed-edge count across batches
	RunNanos    atomic.Int64 // summed batch traversal time

	BatchWidth metrics.Histogram // sources per executed batch
	Latency    metrics.Histogram // end-to-end request latency (ns)
	// The latency split: QueueWait is the time a request spent pending
	// before its batch was cut — time behind the graph's running batches,
	// no deadline in it, near zero on an idle graph — Exec the traversal
	// time of its serving batch (both ns, once per request). Their quantiles
	// tell queueing behind other batches from the traversal itself.
	QueueWait metrics.Histogram
	Exec      metrics.Histogram
}

// NewMetrics returns a zeroed Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// MeanBatchWidth is the average number of sources per executed batch — the
// amortization factor the coalescer exists to maximize. 0 when no batch has
// run.
func (m *Metrics) MeanBatchWidth() float64 {
	b := m.Batches.Load()
	if b == 0 {
		return 0
	}
	return float64(m.Sources.Load()) / float64(b)
}

// GTEPS is the aggregate traversal throughput over all batches, under the
// Graph500 edge-counting rules (each batch counts its sources' component
// edges once per source).
func (m *Metrics) GTEPS() float64 {
	return metrics.GTEPS(m.Edges.Load(), time.Duration(m.RunNanos.Load()))
}

// writeTo renders the metrics in the Prometheus text exposition format,
// labelled with the graph name. queueDepth and inFlight are sampled live
// from the coalescer.
func (m *Metrics) writeTo(w io.Writer, graph string, queueDepth, inFlight int) {
	l := fmt.Sprintf("{graph=%q}", graph)
	fmt.Fprintf(w, "bfsd_requests_total%s %d\n", l, m.Requests.Load())
	fmt.Fprintf(w, "bfsd_rejected_total%s %d\n", l, m.Rejected.Load())
	fmt.Fprintf(w, "bfsd_canceled_total%s %d\n", l, m.Canceled.Load())
	fmt.Fprintf(w, "bfsd_batches_total%s %d\n", l, m.Batches.Load())
	fmt.Fprintf(w, "bfsd_batch_errors_total%s %d\n", l, m.BatchErrors.Load())
	fmt.Fprintf(w, "bfsd_sources_total%s %d\n", l, m.Sources.Load())
	fmt.Fprintf(w, "bfsd_queue_depth%s %d\n", l, queueDepth)
	fmt.Fprintf(w, "bfsd_batches_in_flight%s %d\n", l, inFlight)
	fmt.Fprintf(w, "bfsd_batch_width_mean%s %.2f\n", l, m.MeanBatchWidth())
	for _, q := range []struct {
		name string
		v    int64
	}{
		{"p50", m.BatchWidth.P50()},
		{"p95", m.BatchWidth.P95()},
		{"max", m.BatchWidth.Max()},
	} {
		fmt.Fprintf(w, "bfsd_batch_width{graph=%q,quantile=%q} %d\n", graph, q.name, q.v)
	}
	for _, h := range []struct {
		metric string
		h      *metrics.Histogram
	}{
		{"bfsd_latency_seconds", &m.Latency},
		{"bfsd_queue_wait_seconds", &m.QueueWait},
		{"bfsd_exec_seconds", &m.Exec},
	} {
		for _, q := range []struct {
			name string
			v    int64
		}{
			{"p50", h.h.P50()},
			{"p95", h.h.P95()},
			{"p99", h.h.P99()},
		} {
			fmt.Fprintf(w, "%s{graph=%q,quantile=%q} %.6f\n",
				h.metric, graph, q.name, time.Duration(q.v).Seconds())
		}
	}
	fmt.Fprintf(w, "bfsd_gteps%s %.4f\n", l, m.GTEPS())
}

// writeDynTo renders a dynamic graph's ingest/versioning gauges and
// counters next to the graph's serving metrics. compact distributes the
// full compaction wall times (ns values, rendered as seconds).
func writeDynTo(w io.Writer, graph string, st dyngraphStats, compact *metrics.Histogram) {
	l := fmt.Sprintf("{graph=%q}", graph)
	fmt.Fprintf(w, "bfsd_graph_version%s %d\n", l, st.Version)
	fmt.Fprintf(w, "bfsd_ingest_batches_total%s %d\n", l, st.IngestBatches)
	fmt.Fprintf(w, "bfsd_ingest_edges_total%s %d\n", l, st.IngestEdges)
	fmt.Fprintf(w, "bfsd_ingest_rejected_total%s %d\n", l, st.IngestRejected)
	fmt.Fprintf(w, "bfsd_ingest_delta_arcs%s %d\n", l, st.DeltaArcs)
	fmt.Fprintf(w, "bfsd_ingest_pinned_snapshots%s %d\n", l, st.PinnedNow)
	fmt.Fprintf(w, "bfsd_ingest_retained_versions%s %d\n", l, st.RetainedViews)
	fmt.Fprintf(w, "bfsd_compactions_total%s %d\n", l, st.Compactions)
	fmt.Fprintf(w, "bfsd_retired_generations_total%s %d\n", l, st.RetiredGens)
	for _, q := range []struct {
		name string
		v    int64
	}{
		{"p50", compact.P50()},
		{"p95", compact.P95()},
		{"p99", compact.P99()},
		{"max", compact.Max()},
	} {
		fmt.Fprintf(w, "bfsd_compaction_seconds{graph=%q,quantile=%q} %.6f\n",
			graph, q.name, time.Duration(q.v).Seconds())
	}
	fmt.Fprintf(w, "bfsd_compaction_seconds_count%s %d\n", l, compact.Count())
}

// writeEngineTo renders the daemon engine's pool/arena occupancy gauges
// (unlabelled: one engine serves every graph).
func writeEngineTo(w io.Writer, st msbfs.EngineStats) {
	fmt.Fprintf(w, "bfsd_engine_pools_free %d\n", st.FreePools)
	fmt.Fprintf(w, "bfsd_engine_pooled_workers %d\n", st.PooledWorkers)
	fmt.Fprintf(w, "bfsd_engine_arena_free_shells %d\n", st.FreeShells)
	fmt.Fprintf(w, "bfsd_engine_arena_free_states %d\n", st.FreeStates)
	fmt.Fprintf(w, "bfsd_engine_arena_free_bitmaps %d\n", st.FreeBitmaps)
	fmt.Fprintf(w, "bfsd_engine_arena_free_level_rows %d\n", st.FreeLevelRows)
	fmt.Fprintf(w, "bfsd_engine_arena_free_bytes %d\n", st.FreeBytes)
	fmt.Fprintf(w, "bfsd_engine_borrowed %d\n", st.Borrowed)
	fmt.Fprintf(w, "bfsd_engine_arena_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "bfsd_engine_arena_misses_total %d\n", st.Misses)
}
