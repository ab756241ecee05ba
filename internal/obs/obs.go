// Package obs is the traversal tracing layer: a stdlib-only flight
// recorder that captures one record per BFS iteration — direction and the
// heuristic's reason for it, frontier/next/visited counts, wall time,
// per-worker task and steal counts, and a cluster query's per-shard steps —
// plus span-style timing for coarse phases (CSR build, relabel, coalescer
// flush).
//
// The package is built around one invariant: tracing disabled is free.
// Every entry point is safe to call through a nil *Tracer or nil
// *Traversal receiver and returns immediately without allocating, so the
// kernels can thread tracer calls unconditionally and pay a single
// pointer test per iteration when no one is listening. The hotalloc vet
// pass's tracezero rule enforces that callers inside //bfs:hot loops keep
// that shape.
//
// obs deliberately imports nothing from the rest of the repo (no sched,
// no core): producers push plain counters and pre-computed deltas in, so
// the dependency arrow points one way and the package stays reusable from
// both the internal engine and the public API.
package obs

import (
	"slices"
	"sync"
	"time"
)

// Retention bounds. A Tracer is a bounded flight recorder, not an
// unbounded event log: when full, the oldest completed records are
// dropped and counted.
const (
	maxTraversals = 256
	maxSpans      = 1024
)

// IterationRecord is one BFS iteration's record, the only per-level type:
// a kernel builds it once per level and hands that one value to both
// sinks, Result.Stats.Iterations (CollectIterStats) and the flight record
// (Tracer). Counts are in (vertex, source) states for multi-source kernels
// and plain vertices for single-source ones. The per-worker vectors have
// one entry per worker of the run's pool and are nil for kernels without
// one.
type IterationRecord struct {
	// Iteration is the BFS depth of this iteration (1-based, matching
	// the level assigned to vertices discovered in it).
	Iteration int `json:"iteration"`
	// BottomUp records the direction the iteration ran in.
	BottomUp bool `json:"bottom_up"`
	// Reason says why the direction heuristic chose that direction
	// (one of the core package's decision constants, e.g.
	// "frontier-edges>unexplored/alpha" at a top-down→bottom-up switch).
	Reason string `json:"reason"`
	// FrontierVertices is the number of vertices in the frontier the
	// iteration produced (multi-source: vertices with at least one BFS bit
	// set), the direction heuristic's vertex input for the next iteration.
	FrontierVertices int64 `json:"frontier"`
	// UpdatedStates is the number of BFS states the iteration newly set.
	UpdatedStates int64 `json:"next"`
	// ScannedEdges is the number of neighbor entries examined.
	ScannedEdges int64 `json:"scanned"`
	// Visited is the cumulative number of visited states after the
	// iteration completed.
	Visited int64 `json:"visited"`
	// Duration is the iteration's wall time.
	Duration time.Duration `json:"duration_ns"`
	// WorkerTasks, WorkerSteals and WorkerBusy are per-worker deltas of
	// the pool's cumulative counters over the iteration: tasks fetched, of
	// those the tasks stolen from another worker's queue, and time spent
	// inside parallel phases.
	WorkerTasks  []int64         `json:"worker_tasks,omitempty"`
	WorkerSteals []int64         `json:"worker_steals,omitempty"`
	WorkerBusy   []time.Duration `json:"worker_busy_ns,omitempty"`
	// WorkerScanned and WorkerUpdated break ScannedEdges and UpdatedStates
	// down by worker (the visited neighbors of Figure 6 and the updated
	// states of Figure 7). On a parallel top-down level a scanned entry
	// counts for the worker that writes it, the owner of the neighbor's
	// stripe.
	WorkerScanned []int64 `json:"worker_scanned,omitempty"`
	WorkerUpdated []int64 `json:"worker_updated,omitempty"`
	// ScatterSteals is how many of the iteration's steals happened during
	// a top-down level's scatter phase; the rest of Steals() fell in the
	// resolve phase (the apply runs static and never steals). Zero for
	// bottom-up levels and with stealing off.
	ScatterSteals int64 `json:"scatter_steals,omitempty"`
	// ExchangeBytes and ExchangeRawBytes are set only by the cluster
	// coordinator: the delta-frontier bytes actually sent between shards
	// this iteration (after codec compression) and the raw size those
	// deltas would occupy as uncompressed bitset words. Zero for
	// single-process traversals.
	ExchangeBytes    int64 `json:"exchange_bytes,omitempty"`
	ExchangeRawBytes int64 `json:"exchange_raw_bytes,omitempty"`
	// FrontierEdges and UnexploredEdges are the direction heuristic's
	// other two inputs (FrontierVertices is the third): the out-degree sum
	// of the frontier the iteration produced and the edges not yet claimed
	// by any discovered vertex. Recording them pins the full
	// decideDirection input vector per iteration, which is what the
	// overlay-fusion equivalence tests diff between fused and compacted
	// runs.
	FrontierEdges   int64 `json:"frontier_edges,omitempty"`
	UnexploredEdges int64 `json:"unexplored_edges,omitempty"`
	// MergeWords and WorkerMergeWords describe the top-down apply: the
	// scatter inbox entries each stripe owner applied to its stripe of next
	// this iteration (per owner in WorkerMergeWords, summed in MergeWords;
	// trace consumers parse the merge_words name). Zero for bottom-up
	// iterations and solo-worker runs, nil for kernels without the apply.
	MergeWords       int64   `json:"merge_words,omitempty"`
	WorkerMergeWords []int64 `json:"worker_merge_words,omitempty"`
}

// Direction renders the direction as the paper's terminology.
func (r IterationRecord) Direction() string {
	if r.BottomUp {
		return "bottom-up"
	}
	return "top-down"
}

// CompressionRatio returns ExchangeBytes/ExchangeRawBytes — the fraction
// of the raw delta-frontier volume that actually crossed the wire this
// iteration — or 0 when no exchange happened. Values below 1.0 mean the
// sparse codec beat sending raw words.
func (r IterationRecord) CompressionRatio() float64 {
	if r.ExchangeRawBytes == 0 {
		return 0
	}
	return float64(r.ExchangeBytes) / float64(r.ExchangeRawBytes)
}

// Tasks sums the per-worker task counts.
func (r IterationRecord) Tasks() int64 { return sumInt64(r.WorkerTasks) }

// Steals sums the per-worker steal counts.
func (r IterationRecord) Steals() int64 { return sumInt64(r.WorkerSteals) }

// Skew returns the ratio of the longest to the shortest per-worker busy
// time of the iteration, the quantity plotted in Figure 9, or 1 without
// per-worker times. Busy times are clamped to a microsecond so an idle
// worker shows up as large skew rather than a division by zero.
func (r IterationRecord) Skew() float64 {
	if len(r.WorkerBusy) == 0 {
		return 1
	}
	const eps = time.Microsecond
	lo, hi := max(slices.Min(r.WorkerBusy), eps), max(slices.Max(r.WorkerBusy), eps)
	return float64(hi) / float64(lo)
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// ShardStep is one shard's slice of one cluster BFS level: the sub-phase
// wall times the shard measured on its own clock, bracketed by the
// coordinator-clock timestamps of the step RPC that carried them. Shard
// and coordinator clocks are never compared directly — the coordinator
// only ships durations over the wire and AlignedStart places them.
type ShardStep struct {
	Shard int `json:"shard"`
	Level int `json:"level"`
	// ReqSent and ReplyRecv bound the step RPC on the coordinator's
	// clock; the shard's work is strictly inside this window.
	ReqSent   time.Time `json:"req_sent"`
	ReplyRecv time.Time `json:"reply_recv"`
	// Sub-phase durations, measured on the shard: local frontier scan,
	// delta encode, concurrent peer sends, barrier wait, inbound delta
	// decode, and the next&^seen apply.
	Scan   time.Duration `json:"scan_ns"`
	Encode time.Duration `json:"encode_ns"`
	Send   time.Duration `json:"send_ns"`
	Wait   time.Duration `json:"wait_ns"`
	Decode time.Duration `json:"decode_ns"`
	Apply  time.Duration `json:"apply_ns"`
	// NextStates, SentBytes and RawBytes mirror the step reply's
	// counters for this shard alone, and Scanned and Frontier are the
	// shard's own scanned edges and produced frontier over its stripe of
	// owned vertices (the coordinator's IterationRecord carries the
	// cluster-wide sums of all five).
	NextStates int64 `json:"next_states"`
	Scanned    int64 `json:"scanned"`
	Frontier   int64 `json:"frontier"`
	SentBytes  int64 `json:"sent_bytes,omitempty"`
	RawBytes   int64 `json:"raw_bytes,omitempty"`
}

// ShardDuration sums the shard-measured sub-phases.
func (st ShardStep) ShardDuration() time.Duration {
	return st.Scan + st.Encode + st.Send + st.Wait + st.Decode + st.Apply
}

// AlignedStart maps the shard-clock step onto the coordinator clock:
// the step is centered on the RPC's midpoint, the standard symmetric
// one-way-delay assumption. Because the shard's work is a strict subset
// of the RPC window, the aligned interval always nests inside
// [ReqSent, ReplyRecv] — so per-shard tracks stay monotonic across
// levels no matter how the two clocks drift.
func (st ShardStep) AlignedStart() time.Time {
	mid := st.ReqSent.Add(st.ReplyRecv.Sub(st.ReqSent) / 2)
	return mid.Add(-st.ShardDuration() / 2)
}

// Traversal is the flight record of one BFS run. It is produced by a
// single goroutine (the kernel driving the traversal) and published to
// its Tracer on Finish; until then the Tracer does not see it.
type Traversal struct {
	// ID is the tracer-unique traversal id (1-based).
	ID uint64 `json:"id"`
	// Algo names the kernel ("ms-pbfs", "beamer/gapbs", ...).
	Algo string `json:"algo"`
	// Sources is the batch width (1 for single-source kernels).
	Sources int `json:"sources"`
	// Start and End bound the traversal's wall time.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Iterations holds one record per BFS iteration, in order.
	Iterations []IterationRecord `json:"iterations"`
	// ShardSteps holds the merged multi-process records of a cluster
	// traversal: one entry per (level, shard), appended level by level by
	// the coordinator. Empty for single-process traversals.
	ShardSteps []ShardStep `json:"shard_steps,omitempty"`

	t *Tracer
}

// Record appends one iteration record. Nil-safe no-op. Must be called
// from the traversal's own goroutine (it is not synchronized).
func (tr *Traversal) Record(rec IterationRecord) {
	if tr == nil {
		return
	}
	tr.Iterations = append(tr.Iterations, rec)
}

// RecordShardStep appends one shard's step record. Nil-safe no-op. Must
// be called from the traversal's own goroutine (it is not synchronized).
func (tr *Traversal) RecordShardStep(st ShardStep) {
	if tr == nil {
		return
	}
	tr.ShardSteps = append(tr.ShardSteps, st)
}

// Finish stamps the end time and publishes the traversal to its tracer.
// Nil-safe no-op.
func (tr *Traversal) Finish() {
	if tr == nil {
		return
	}
	tr.End = time.Now()
	tr.t.mu.Lock()
	tr.t.traversals.Push(tr)
	tr.t.mu.Unlock()
}

// Span is one completed coarse-phase timing (CSR build, relabel,
// coalescer flush, ...).
type Span struct {
	Name     string        `json:"name"`
	Detail   string        `json:"detail,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// SpanHandle is an open span; End completes and publishes it.
type SpanHandle struct {
	t *Tracer
	s Span
}

// Annotate replaces the span's detail with the outcome known only once
// the work ran (e.g. the generation number a compaction produced).
// Nil-safe no-op; call before End.
func (h *SpanHandle) Annotate(detail string) {
	if h == nil {
		return
	}
	h.s.Detail = detail
}

// End completes the span and publishes it to the tracer. Nil-safe no-op.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.s.Duration = time.Since(h.s.Start)
	h.t.mu.Lock()
	h.t.spans.Push(h.s)
	h.t.mu.Unlock()
}

// Tracer collects completed traversals and spans under bounded
// retention. The zero value is not usable; use NewTracer. A nil *Tracer
// is the disabled state: every method returns immediately.
//
// Tracer is safe for concurrent use — kernels running per-core batches
// call StartTraversal/Finish from many goroutines at once.
type Tracer struct {
	origin time.Time

	mu         sync.Mutex
	nextID     uint64
	traversals Ring[*Traversal]
	spans      Ring[Span]
}

// NewTracer returns a tracer retaining at most maxTraversals completed
// traversals and maxSpans completed spans. When a bound is hit the oldest
// record is dropped and counted.
func NewTracer() *Tracer {
	return &Tracer{
		origin:     time.Now(),
		traversals: NewRing[*Traversal](maxTraversals),
		spans:      NewRing[Span](maxSpans),
	}
}

// StartTraversal opens a flight record for one BFS run. Returns nil (the
// disabled traversal) when t is nil.
func (t *Tracer) StartTraversal(algo string, sources int) *Traversal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Traversal{
		ID:      id,
		Algo:    algo,
		Sources: sources,
		Start:   time.Now(),
		t:       t,
	}
}

// StartSpan opens a coarse-phase span. Returns nil when t is nil.
func (t *Tracer) StartSpan(name, detail string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, s: Span{Name: name, Detail: detail, Start: time.Now()}}
}

// Trace is an immutable snapshot of a tracer's retained records.
type Trace struct {
	// Origin is the tracer's creation time (the Chrome export's ts=0).
	Origin time.Time `json:"origin"`
	// Traversals and Spans are ordered oldest-first.
	Traversals []Traversal `json:"traversals"`
	Spans      []Span      `json:"spans"`
	// DroppedTraversals and DroppedSpans count records evicted by the
	// retention bounds.
	DroppedTraversals uint64 `json:"dropped_traversals,omitempty"`
	DroppedSpans      uint64 `json:"dropped_spans,omitempty"`
}

// Snapshot copies the retained records out. Nil-safe: returns a zero
// Trace when t is nil.
func (t *Tracer) Snapshot() Trace {
	if t == nil {
		return Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.traversals.Copy()
	tr := Trace{
		Origin:            t.origin,
		Traversals:        make([]Traversal, len(kept)),
		Spans:             t.spans.Copy(),
		DroppedTraversals: t.traversals.Dropped(),
		DroppedSpans:      t.spans.Dropped(),
	}
	for i, tv := range kept {
		cp := *tv
		cp.t = nil
		tr.Traversals[i] = cp
	}
	return tr
}
