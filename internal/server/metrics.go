package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	msbfs "repro"
	"repro/internal/dyngraph"
	"repro/internal/metrics"
)

// Metrics aggregates one coalescer's serving statistics. All fields are
// safe for concurrent update; the entry's metric table exports them.
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

// metricKind says how a row is exported and sampled.
type metricKind uint8

const (
	// counter is a cumulative count; the sampler takes its per-second rate.
	counter metricKind = iota
	// gauge is a current level, sampled as is.
	gauge
	// ratio is num ÷ den of two cumulative counts; the sampler takes
	// Δnum ÷ Δden over its tick.
	ratio
	// quantiles is a histogram, exported and sampled one value per
	// quantile of quantileSet.
	quantiles
)

// quantileSet is what every histogram row exports.
var quantileSet = [...]struct {
	name string
	of   func(*metrics.Histogram) int64
}{
	{"p50", (*metrics.Histogram).P50},
	{"p95", (*metrics.Histogram).P95},
	{"p99", (*metrics.Histogram).P99},
	{"max", (*metrics.Histogram).Max},
}

// metricPass holds the snapshots one read of a table shares, so a dynamic
// graph's rows cost one Dyn.Stats() per read, not one per row.
type metricPass struct {
	dyn dyngraph.Stats
	eng msbfs.EngineStats
}

// metricRow is one exported number. num reads a counter or a gauge, or a
// ratio's numerator; den reads a ratio's denominator. A quantiles row
// exports hist's values divided by div (1e9 turns ns into seconds).
type metricRow struct {
	name     string
	kind     metricKind
	num, den func(*metricPass) float64
	hist     *metrics.Histogram
	div      float64
}

func load(a *atomic.Int64) func(*metricPass) float64 {
	return func(*metricPass) float64 { return float64(a.Load()) }
}

func counterRow(name string, v func(*metricPass) float64) metricRow {
	return metricRow{name: name, kind: counter, num: v}
}

func gaugeRow(name string, v func(*metricPass) float64) metricRow {
	return metricRow{name: name, kind: gauge, num: v}
}

func ratioRow(name string, num, den func(*metricPass) float64) metricRow {
	return metricRow{name: name, kind: ratio, num: num, den: den}
}

func histRow(name string, h *metrics.Histogram, div float64) metricRow {
	return metricRow{name: name, kind: quantiles, hist: h, div: div}
}

// metricTable is every exported number of one graph, or with graph "" of
// the daemon's engine. GET /metrics prints it and the stats sampler
// samples it, so both carry the same names.
type metricTable struct {
	graph string
	snap  func(*metricPass) // takes the snapshots the rows read; nil if none
	rows  []metricRow
}

// metricValue is one reading: a row's value, or one quantile of a
// quantiles row. A ratio's value is num ÷ den.
type metricValue struct {
	name, quantile string
	kind           metricKind
	num, den       float64
}

func (v metricValue) value() float64 {
	if v.kind != ratio {
		return v.num
	}
	if v.den == 0 {
		return 0
	}
	return v.num / v.den
}

// read takes one pass over the table, handing fn every reading in order.
func (t *metricTable) read(fn func(metricValue)) {
	var p metricPass
	if t.snap != nil {
		t.snap(&p)
	}
	for i := range t.rows {
		r := &t.rows[i]
		if r.kind == quantiles {
			for _, q := range quantileSet {
				fn(metricValue{name: r.name, quantile: q.name, kind: quantiles, num: float64(q.of(r.hist)) / r.div})
			}
			continue
		}
		v := metricValue{name: r.name, kind: r.kind, num: r.num(&p)}
		if r.den != nil {
			v.den = r.den(&p)
		}
		fn(v)
	}
}

// seriesName is a reading's time-series name: <graph>/<name>, engine rows
// under engine/, and a quantile as a final /<quantile>.
func (t *metricTable) seriesName(v metricValue) string {
	s := t.graph
	if s == "" {
		s = "engine"
	}
	s += "/" + v.name
	if v.quantile != "" {
		s += "/" + v.quantile
	}
	return s
}

// writeTo prints every reading in the Prometheus text exposition format,
// labelled with the graph (engine rows are unlabelled). Integral values
// print as integers.
func (t *metricTable) writeTo(w io.Writer) {
	t.read(func(v metricValue) {
		var labels []string
		if t.graph != "" {
			labels = append(labels, fmt.Sprintf("graph=%q", t.graph))
		}
		if v.quantile != "" {
			labels = append(labels, fmt.Sprintf("quantile=%q", v.quantile))
		}
		l := ""
		if len(labels) > 0 {
			l = "{" + strings.Join(labels, ",") + "}"
		}
		fmt.Fprintf(w, "%s%s %s\n", v.name, l, strconv.FormatFloat(v.value(), 'f', -1, 64))
	})
}

// entryTable builds a graph's rows: the serving rows every graph has, then
// the cluster's and the dynamic graph's where the entry has them. Call it
// once the entry's coalescer exists.
func entryTable(e *Entry) metricTable {
	m := e.Met
	t := metricTable{graph: e.Name, rows: []metricRow{
		counterRow("bfsd_requests_total", load(&m.Requests)),
		counterRow("bfsd_rejected_total", load(&m.Rejected)),
		counterRow("bfsd_canceled_total", load(&m.Canceled)),
		counterRow("bfsd_batches_total", load(&m.Batches)),
		counterRow("bfsd_batch_errors_total", load(&m.BatchErrors)),
		counterRow("bfsd_sources_total", load(&m.Sources)),
		gaugeRow("bfsd_queue_depth", func(*metricPass) float64 { return float64(e.Coal.QueueLen()) }),
		gaugeRow("bfsd_batches_in_flight", func(*metricPass) float64 { return float64(e.Coal.InFlight()) }),
		ratioRow("bfsd_batch_width_mean", load(&m.Sources), load(&m.Batches)),
		histRow("bfsd_batch_width", &m.BatchWidth, 1),
		histRow("bfsd_latency_seconds", &m.Latency, 1e9),
		histRow("bfsd_queue_wait_seconds", &m.QueueWait, 1e9),
		histRow("bfsd_exec_seconds", &m.Exec, 1e9),
		// Graph500-counted edges per traversal nanosecond: billions of
		// edges per second.
		ratioRow("bfsd_gteps", load(&m.Edges), load(&m.RunNanos)),
	}}
	if c := e.ClusterMet; c != nil {
		t.rows = append(t.rows,
			counterRow("bfsd_cluster_frontier_bytes_total", load(&c.FrontierBytes)),
			counterRow("bfsd_cluster_frontier_raw_bytes_total", load(&c.FrontierRawBytes)),
			ratioRow("bfsd_cluster_compression_ratio", load(&c.FrontierBytes), load(&c.FrontierRawBytes)),
			counterRow("bfsd_cluster_rpcs_total", load(&c.RPCs)),
			histRow("bfsd_cluster_rpc_seconds", &c.RPCSeconds, 1e9),
			counterRow("bfsd_cluster_queries_total", load(&c.Queries)),
			counterRow("bfsd_cluster_query_errors_total", load(&c.QueryErrors)),
		)
	}
	if d := e.Dyn; d != nil {
		t.snap = func(p *metricPass) { p.dyn = d.Stats() }
		t.rows = append(t.rows,
			gaugeRow("bfsd_graph_version", func(p *metricPass) float64 { return float64(p.dyn.Version) }),
			counterRow("bfsd_ingest_batches_total", func(p *metricPass) float64 { return float64(p.dyn.IngestBatches) }),
			counterRow("bfsd_ingest_edges_total", func(p *metricPass) float64 { return float64(p.dyn.IngestEdges) }),
			counterRow("bfsd_ingest_rejected_total", func(p *metricPass) float64 { return float64(p.dyn.IngestRejected) }),
			gaugeRow("bfsd_ingest_delta_arcs", func(p *metricPass) float64 { return float64(p.dyn.DeltaArcs) }),
			gaugeRow("bfsd_ingest_pinned_snapshots", func(p *metricPass) float64 { return float64(p.dyn.PinnedNow) }),
			gaugeRow("bfsd_ingest_retained_versions", func(p *metricPass) float64 { return float64(p.dyn.RetainedViews) }),
			counterRow("bfsd_compactions_total", func(p *metricPass) float64 { return float64(p.dyn.Compactions) }),
			counterRow("bfsd_retired_generations_total", func(p *metricPass) float64 { return float64(p.dyn.RetiredGens) }),
			histRow("bfsd_compaction_seconds", d.CompactSeconds(), 1e9),
		)
	}
	return t
}

// engineTable builds the daemon engine's pool/arena rows.
func engineTable(eng *msbfs.Engine) metricTable {
	hits := func(p *metricPass) float64 { return float64(p.eng.Hits) }
	misses := func(p *metricPass) float64 { return float64(p.eng.Misses) }
	return metricTable{snap: func(p *metricPass) { p.eng = eng.Stats() }, rows: []metricRow{
		gaugeRow("bfsd_engine_pools_free", func(p *metricPass) float64 { return float64(p.eng.FreePools) }),
		gaugeRow("bfsd_engine_pooled_workers", func(p *metricPass) float64 { return float64(p.eng.PooledWorkers) }),
		gaugeRow("bfsd_engine_arena_free_shells", func(p *metricPass) float64 { return float64(p.eng.FreeShells) }),
		gaugeRow("bfsd_engine_arena_free_bytes", func(p *metricPass) float64 { return float64(p.eng.FreeBytes) }),
		gaugeRow("bfsd_engine_borrowed", func(p *metricPass) float64 { return float64(p.eng.Borrowed) }),
		counterRow("bfsd_engine_arena_hits_total", hits),
		counterRow("bfsd_engine_arena_misses_total", misses),
		ratioRow("bfsd_engine_arena_hit_ratio", hits, func(p *metricPass) float64 { return hits(p) + misses(p) }),
	}}
}

// metricTables lists every graph's table in name order, then the engine's.
func (r *Registry) metricTables() []*metricTable {
	var ts []*metricTable
	for _, name := range r.Names() {
		if e, ok := r.Get(name); ok {
			ts = append(ts, &e.rows)
		}
	}
	return append(ts, &r.engRows)
}
