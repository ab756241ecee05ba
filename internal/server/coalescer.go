// Package server implements bfsd, the batching BFS query service: an HTTP
// front end over the msbfs library that coalesces concurrent single-source
// queries (BFS distances, closeness, reachability, k-hop counts) into wide
// MS-PBFS batches.
//
// The paper's argument is that b concurrent BFS traversals over the same
// graph share most of their work and should run as one array-based
// multi-source pass. Real query traffic, however, arrives one source at a
// time. The Coalescer closes that gap by natural batching: a request that
// finds its graph idle is traversed at once, requests arriving while
// batches run accumulate in a bounded pending queue, and its head (at most
// MaxBatch sources) becomes the next MultiBFS batch when a runner is
// free (cutWidthLocked), at most two per graph (maxInFlight). One visitor
// pass answers every query kind in the batch; results are demultiplexed
// back to the waiting requests.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// Kind identifies a query type. All kinds are served from the same batched
// visitor pass.
type Kind string

const (
	// KindBFS answers visited-vertex count, eccentricity and distances to
	// the requested target vertices.
	KindBFS Kind = "bfs"
	// KindCloseness answers the source's closeness centrality
	// (Wasserman-Faust normalization, as msbfs.Graph.Closeness).
	KindCloseness Kind = "closeness"
	// KindReachability answers whether Targets[0] is reachable.
	KindReachability Kind = "reachability"
	// KindKHop answers the number of vertices within Hops hops.
	KindKHop Kind = "khop"
)

// Query is one single-source request.
type Query struct {
	Kind   Kind
	Source int
	// Targets are the distance targets (KindBFS, at most MaxTargets) or
	// the single reachability target (KindReachability).
	Targets []int
	// Hops is the neighborhood radius for KindKHop.
	Hops int
	// Version pins the query to a specific published version of a dynamic
	// graph (0: current). Rejected with ErrBadRequest on a backend with one
	// eternal version (static and cluster graphs).
	Version uint64
}

// MaxTargets bounds the per-request distance-target list; it keeps the
// per-batch target index small and the response bounded.
const MaxTargets = 1024

// Answer is the demultiplexed per-request result. Only the fields of the
// request's Kind are meaningful.
type Answer struct {
	Visited      int64   // vertices reached, including the source
	Eccentricity int32   // greatest BFS depth reached
	Distances    []int32 // per requested target; msbfs.NoLevel if unreachable
	Closeness    float64
	Reachable    bool
	Count        int64 // vertices within Hops hops, including the source

	BatchWidth   int           // sources in the batch that served this request
	Wait         time.Duration // time spent queued before the batch ran
	Run          time.Duration // traversal time of the serving batch
	TraceID      uint64        // flight-recorder correlation id; 0 when untraced
	GraphVersion uint64        // graph version served; 0 on static and cluster graphs
}

// Coalescer errors. The HTTP layer maps ErrQueueFull to 429 + Retry-After,
// ErrClosed to 503, ErrBadRequest to 400 and ErrBatchPanic to 500.
var (
	ErrQueueFull  = errors.New("server: pending queue full")
	ErrClosed     = errors.New("server: coalescer closed")
	ErrBadRequest = errors.New("server: bad request")
	// ErrBatchPanic fails the requests of a batch whose traversal panicked;
	// the coalescer, and every other graph, keeps serving.
	ErrBatchPanic = errors.New("server: batch panicked")
)

// Config tunes a Coalescer (and, via the Server, every per-graph
// coalescer). The zero value is usable; see the field comments for
// defaults.
type Config struct {
	// Workers is the traversal parallelism per batch (<=0: 1).
	Workers int
	// MaxBatch is the widest batch in sources (<=0: 64). A cut of w
	// sources runs on ceil(w/64)-word MS-PBFS rows, so the width is the
	// one knob: MaxBatch 64w allows w-word rows. MaxBatch 1 disables
	// coalescing — the per-request serving baseline that cmd/bfsload
	// compares against.
	MaxBatch int
	// Deprecated: FlushDeadline is ignored (batches are cut when a runner is
	// free, not on a timer); it remains because frozen benchmark/ names it.
	FlushDeadline time.Duration
	// MaxPending bounds the graph's admitted requests, queued or running;
	// beyond it Submit fails fast with ErrQueueFull (0: 4 x MaxBatch).
	MaxPending int
	// RequestTimeout bounds each request server-side (0: 10s). Applied by
	// the HTTP layer, not the Coalescer (Submit honors its Context).
	RequestTimeout time.Duration
	// Engine is the execution engine batch flushes run on, so every flush
	// reuses the same pooled workers and recycled state arrays. The
	// Registry wires its per-daemon engine here; nil falls back to the
	// library's shared default engine.
	Engine *msbfs.Engine
}

func (c Config) normalize() Config {
	// The library's option clamping is the single source of truth for the
	// Workers domain.
	c.Workers = msbfs.Options{Workers: c.Workers}.Normalize().Workers
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// pendingReq is one queued request with its demux channel.
type pendingReq struct {
	q        Query
	ctx      context.Context
	done     chan outcome
	enqueued time.Time
	traceID  uint64
	// pin is the graph version this request traverses, taken at submit
	// time. Owned by the request; released exactly once when the request
	// leaves the coalescer, on every path.
	pin msbfs.Pinned
}

type outcome struct {
	a   Answer
	err error
}

// maxInFlight bounds the batches of one graph running at once: concurrent
// batches multiply batch state and split the cores (the paper's case
// against one instance per core), and a second one earns its state arrays
// only by traversing while the first one's answers are demultiplexed,
// encoded and its callers are on their way back with the next requests —
// a gap in which one slot leaves the kernel idle. One slot, three and no
// bound each measured worse (docs/SERVER.md, Batching policy notes).
const maxInFlight = 2

// Coalescer batches single-source queries against one graph into
// multi-source traversals. Create with NewCoalescer; Close drains it.
type Coalescer struct {
	g     Backend
	cfg   Config
	met   *Metrics
	edges func(sources []int) int64 // Graph500 edge accounting; may be nil

	// The registry's observability surface, wired in by addBackend; a
	// coalescer built by NewCoalescer alone has none. name labels its
	// flight records and spans; rec receives one flight record per
	// admitted or rejected request and issues their trace IDs (0 when
	// nil); tracer records a span around every batch flush; logger
	// receives panics and the requests rec classifies as slow.
	name   string
	rec    *FlightRecorder
	tracer *obs.Tracer
	logger *slog.Logger

	mu      sync.Mutex
	pending []*pendingReq // admitted, not yet cut, in arrival order
	running int           // batches cut and not yet finished, <= maxInFlight
	runReqs int           // requests cut into those batches
	lastCut int           // width, as cut, of the batch that finished last
	free    []*batch      // scratch of finished batches, <= maxInFlight
	closed  bool
	wg      sync.WaitGroup // running batches
}

// NewCoalescer builds a coalescer over backend g — a *msbfs.Graph, a
// *cluster.RemoteGraph or a *dyngraph.DynGraph. met must be
// non-nil (use NewMetrics); edges may be nil to skip GTEPS accounting.
func NewCoalescer(g Backend, cfg Config, met *Metrics, edges func([]int) int64) *Coalescer {
	return &Coalescer{g: g, cfg: cfg.normalize(), met: met, edges: edges}
}

// Config returns the normalized configuration the coalescer runs with.
func (c *Coalescer) Config() Config { return c.cfg }

// QueueLen reports the pending-queue depth: requests not yet cut.
func (c *Coalescer) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// InFlight reports the batches running now, at most maxInFlight.
func (c *Coalescer) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.running
}

// validate rejects malformed queries before they can reach (and panic) the
// traversal layer.
func (c *Coalescer) validate(q Query) error {
	n := c.g.NumVertices()
	if q.Source < 0 || q.Source >= n {
		return fmt.Errorf("%w: source %d out of range [0, %d)", ErrBadRequest, q.Source, n)
	}
	switch q.Kind {
	case KindBFS:
		if len(q.Targets) > MaxTargets {
			return fmt.Errorf("%w: %d targets exceeds the per-request maximum %d",
				ErrBadRequest, len(q.Targets), MaxTargets)
		}
	case KindReachability:
		if len(q.Targets) != 1 {
			return fmt.Errorf("%w: reachability takes exactly one target", ErrBadRequest)
		}
	case KindKHop:
		if q.Hops < 0 {
			return fmt.Errorf("%w: negative hops %d", ErrBadRequest, q.Hops)
		}
	case KindCloseness:
	default:
		return fmt.Errorf("%w: unknown query kind %q", ErrBadRequest, q.Kind)
	}
	for _, t := range q.Targets {
		if t < 0 || t >= n {
			return fmt.Errorf("%w: target %d out of range [0, %d)", ErrBadRequest, t, n)
		}
	}
	return nil
}

// Submit enqueues q and blocks until its batch has run or ctx is done. It
// fails fast with ErrQueueFull when the graph already holds MaxPending
// admitted requests and with ErrClosed after Close has begun.
func (c *Coalescer) Submit(ctx context.Context, q Query) (Answer, error) {
	if err := c.validate(q); err != nil {
		return Answer{}, err
	}
	enqueued := time.Now()
	// Pin the requested version before enqueueing: the view fixes which
	// edges this query sees, no matter how long it queues or how much
	// ingest/compaction happens meanwhile.
	pin, err := c.g.Pin(q.Version) //bfs:arena-held released on every terminal path of the request: the early returns below, or runBatch once its batch was cut
	if err != nil {
		return Answer{}, err
	}
	if q.Version != 0 && pin.Version() == 0 {
		// One eternal version: there is nothing to choose between.
		pin.Release()
		return Answer{}, fmt.Errorf("%w: version pinning requires a dynamic graph", ErrBadRequest)
	}
	p := &pendingReq{q: q, ctx: ctx, done: make(chan outcome, 1), enqueued: enqueued,
		traceID: c.rec.NextTraceID(), pin: pin}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		pin.Release()
		return Answer{}, ErrClosed
	}
	if len(c.pending)+c.runReqs >= c.cfg.MaxPending {
		c.mu.Unlock()
		pin.Release()
		c.met.Rejected.Add(1)
		c.record(p, "rejected", 0, 0, 0, 0)
		return Answer{}, ErrQueueFull
	}
	c.met.Requests.Add(1)
	c.pending = append(c.pending, p)
	c.dispatchLocked()
	c.mu.Unlock()

	select {
	case out := <-p.done:
		if out.err == nil {
			c.met.Latency.RecordDuration(time.Since(p.enqueued))
		}
		return out.a, out.err
	case <-ctx.Done():
		// The request stays queued or in its batch (which may be running);
		// the demux send lands in the buffered channel and is dropped.
		c.met.Canceled.Add(1)
		return Answer{}, ctx.Err()
	}
}

// cutWidthLocked is the batching policy: how many requests to cut off the
// head of pending now, 0 to wait. The candidate is the longest prefix
// pinned to one graph version, at most MaxBatch wide — a batch traverses
// exactly one version, so a version change just ends the prefix. With
// nothing running it is cut, whatever its width: latency on an idle graph
// is the traversal alone. Beside one running batch it is cut only once it
// is as wide as that batch and as the one that finished last — as this
// graph's batches currently are — which keeps batches wide under load
// without serialising a load too light to fill one; each weaker or
// stricter form measured worse (docs/SERVER.md). Caller holds c.mu.
func (c *Coalescer) cutWidthLocked() int {
	n := min(len(c.pending), c.cfg.MaxBatch)
	if n == 0 || c.running == maxInFlight {
		return 0
	}
	k, v := 1, c.pending[0].pin.Version()
	for k < n && c.pending[k].pin.Version() == v {
		k++
	}
	// With one batch running, runReqs is its width.
	if c.running > 0 && k < max(c.runReqs, c.lastCut) {
		return 0
	}
	return k
}

// dispatchLocked starts every batch the policy allows now. It runs after
// each arrival and each finished batch — all that can change the policy's
// answer — so pending is never non-empty with nothing running. Caller
// holds c.mu.
func (c *Coalescer) dispatchLocked() {
	for k := c.cutWidthLocked(); k > 0; k = c.cutWidthLocked() {
		var b *batch
		if n := len(c.free); n > 0 {
			b, c.free = c.free[n-1], c.free[:n-1]
		} else {
			b = new(batch)
		}
		b.live = append(b.live, c.pending[:k]...)
		rest := copy(c.pending, c.pending[k:])
		clear(c.pending[rest:])
		c.pending = c.pending[:rest]
		c.running++
		c.runReqs += k
		c.wg.Add(1)
		go c.runBatch(b)
	}
}

// Close stops admission and waits until the pending requests have been
// served through the same two slots as live traffic — the graceful-drain
// path of SIGTERM handling. Every finishing batch dispatches the next, so
// the wait group empties only after the queue has. Safe to call twice.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}

// record files p's flight record and reports whether the recorder
// classified the request as slow.
func (c *Coalescer) record(p *pendingReq, status string, wait, run, total time.Duration, width int) bool {
	return c.rec.Record(RequestRecord{
		TraceID: p.traceID, Graph: c.name, Kind: string(p.q.Kind),
		Source: p.q.Source, Status: status, Start: p.enqueued,
		WaitMicros: wait.Microseconds(), RunMicros: run.Microseconds(),
		TotalMicros: total.Microseconds(), BatchWidth: width,
	})
}

// batch is one cut on its way through execute and demux: the live requests
// — one slot each, all pinned to the same version — and the fold the
// traversal's visitor fills in. A finished batch's storage stays on the
// Coalescer (free) for the next cut instead of being reallocated; the
// fold's distance rows leave with the answers.
type batch struct {
	live    []*pendingReq
	cutAt   time.Time
	sources []int
	opt     msbfs.Options
	fold    core.Fold
}

// runBatch takes one cut through its three stages: cut drops the requests
// nobody waits for and lays out the slots, execute runs the one
// multi-source traversal answering all of them, demux (or fail) hands each
// request its outcome. Pins drop only afterwards, so compaction cannot
// retire the traversed view mid-run. Then the slot is given back and the
// policy consulted for the next cut.
func (c *Coalescer) runBatch(b *batch) {
	defer c.wg.Done()
	cutReqs := len(b.live)
	if c.cut(b) {
		res, err := c.execute(b)
		if err != nil {
			c.fail(b, err)
		} else {
			c.demux(b, res)
		}
		for _, p := range b.live {
			p.pin.Release()
		}
		if err != nil {
			*b = batch{} // a failed RunBatch may not have joined all that writes through the visitor
		}
	}
	// Keep the storage; drop every request pointer and target row.
	clear(b.live[:cap(b.live)])
	b.live = b.live[:0]
	b.fold.Reset(0, 0)
	c.mu.Lock()
	c.running--
	c.runReqs -= cutReqs
	c.lastCut = cutReqs
	c.free = append(c.free, b)
	c.dispatchLocked()
	c.mu.Unlock()
}

// cut drops requests whose caller already gave up — their sources would
// only widen the traversal for nobody — and lays out b over the rest; false
// when none is left.
func (c *Coalescer) cut(b *batch) bool {
	now := time.Now()
	live := b.live[:0]
	for _, p := range b.live {
		if err := p.ctx.Err(); err != nil {
			p.pin.Release()
			p.done <- outcome{err: err}
			wait := now.Sub(p.enqueued)
			c.record(p, "canceled", wait, 0, wait, 0)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return false
	}
	b.live = live
	b.cutAt = now
	b.opt = msbfs.Options{Workers: c.cfg.Workers, Engine: c.cfg.Engine}
	n := len(live)
	b.sources = slices.Grow(b.sources[:0], n)[:n]
	b.fold.Reset(b.opt.Normalize().Workers, n)
	depthBound := 0 // 0 while any slot needs the full traversal
	allBounded := true
	for i, p := range live {
		b.sources[i] = p.q.Source
		switch p.q.Kind {
		case KindKHop:
			b.fold.SetRadius(i, p.q.Hops)
			depthBound = max(depthBound, p.q.Hops)
		default:
			allBounded = false
		}
		if len(p.q.Targets) > 0 {
			b.fold.SetTargets(i, p.q.Targets, core.TargetIndex(p.q.Targets))
		}
	}
	if allBounded {
		// A batch of pure khop queries never needs depths beyond the
		// widest radius; prune the traversal instead of filtering visits.
		b.opt.MaxDepth = depthBound
	}
	return true
}

// execute runs b's traversal on the version its requests pinned (the cut
// policy guarantees they all pinned the same one). A
// backend failure (shard down, barrier timeout) or a panic anywhere under
// RunBatch — the worker pool re-raises its workers' panics on this
// goroutine — fails this batch only: it comes back as an error for fail to
// deliver, and the coalescer keeps serving later batches.
func (c *Coalescer) execute(b *batch) (res *msbfs.MultiResult, err error) {
	ctx, cancel := batchContext(b.live)
	defer cancel()
	sp := c.tracer.StartSpan("coalescer-flush", c.name)
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrBatchPanic, r)
			if c.logger != nil {
				c.logger.Error("batch panicked", "graph", c.name,
					"width", len(b.live), "panic", r, "stack", string(debug.Stack()))
			}
		}
	}()
	return b.live[0].pin.RunBatch(ctx, b.sources, b.opt, b.fold.Visit)
}

// fail delivers a batch-wide error to every live request.
func (c *Coalescer) fail(b *batch, err error) {
	c.met.BatchErrors.Add(1)
	end := time.Now()
	for _, p := range b.live {
		p.done <- outcome{err: err}
		c.record(p, "error", b.cutAt.Sub(p.enqueued), 0, end.Sub(p.enqueued), len(b.live))
	}
}

// demux reads each request's Answer off the batch's fold and delivers it.
func (c *Coalescer) demux(b *batch, res *msbfs.MultiResult) {
	width := len(b.live)
	c.met.Batches.Add(1)
	c.met.Sources.Add(int64(width))
	c.met.BatchWidth.Record(int64(width))
	c.met.RunNanos.Add(int64(res.Elapsed))
	if c.edges != nil {
		c.met.Edges.Add(c.edges(b.sources))
	}

	end := time.Now()
	n := c.g.NumVertices()
	for i, p := range b.live {
		t := b.fold.Tally(i)
		ans := Answer{
			Visited:      t.Reached,
			Eccentricity: t.MaxDepth,
			BatchWidth:   width,
			Wait:         b.cutAt.Sub(p.enqueued),
			Run:          res.Elapsed,
			TraceID:      p.traceID,
			GraphVersion: p.pin.Version(),
		}
		switch p.q.Kind {
		case KindBFS:
			ans.Distances = b.fold.Distances(i)
		case KindCloseness:
			ans.Closeness = t.Closeness(n)
		case KindReachability:
			ans.Reachable = b.fold.Distances(i)[0] != msbfs.NoLevel
		case KindKHop:
			ans.Count = t.InRadius
		}
		p.done <- outcome{a: ans}

		c.met.QueueWait.RecordDuration(ans.Wait)
		c.met.Exec.RecordDuration(res.Elapsed)
		lat := end.Sub(p.enqueued)
		if c.record(p, "ok", ans.Wait, res.Elapsed, lat, width) && c.logger != nil {
			c.logger.Warn("slow query",
				"trace_id", p.traceID, "graph", c.name, "kind", string(p.q.Kind),
				"source", p.q.Source, "wait_us", ans.Wait.Microseconds(),
				"run_us", res.Elapsed.Microseconds(), "total_us", lat.Microseconds(),
				"batch_width", width)
		}
	}
}

// batchContext derives the context a batch dispatch runs under from its
// live requests: the latest deadline among them, so one short-deadline
// request cannot abort the shared traversal, and no deadline at all if any
// request is unbounded. Remote backends propagate it to their RPCs.
func batchContext(live []*pendingReq) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, p := range live {
		dl, ok := p.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return context.WithDeadline(context.Background(), latest)
}
