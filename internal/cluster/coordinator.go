package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// CoordinatorOptions tunes a Coordinator.
type CoordinatorOptions struct {
	// Tracer, when non-nil, records one flight-record traversal per
	// cluster query, with per-iteration frontier counts and the delta
	// exchange volume/compression ratio.
	Tracer *obs.Tracer
}

// dialTimeout bounds the initial shard dials of NewCoordinator.
const dialTimeout = 5 * time.Second

// Coordinator is the query-side half of cluster mode: it owns one control
// connection per shard, partitions and ships graphs, and drives the
// level-synchronous barrier of every query, stamping the discoveries the
// shards' step replies carry into the single-process result shape.
type Coordinator struct {
	addrs  []string
	conns  []*rpcConn
	tracer *obs.Tracer
	met    *Metrics
	nextID atomic.Uint64
}

// NewCoordinator dials every shard's control port. All shards must be
// reachable: a cluster with a dead shard cannot answer any query, so
// failing at attach time beats failing at first query.
func NewCoordinator(ctx context.Context, addrs []string, opt CoordinatorOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	c := &Coordinator{addrs: addrs, tracer: opt.Tracer, met: &Metrics{}}
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	for _, addr := range addrs {
		rc, err := dialShard(dctx, addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, rc)
	}
	return c, nil
}

// Metrics returns the coordinator's cluster metrics.
func (c *Coordinator) Metrics() *Metrics { return c.met }

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.addrs) }

// Close tears down the control connections. Shards keep running (they are
// separate processes); their own lifecycle closes them.
func (c *Coordinator) Close() {
	for _, rc := range c.conns {
		if rc != nil {
			rc.close()
		}
	}
}

// call issues one RPC to shard s, recording its latency.
func (c *Coordinator) call(ctx context.Context, s int, typ byte, payload []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.conns[s].call(ctx, typ, payload)
	c.met.observeRPC(time.Since(start))
	return out, err
}

// fanOut runs fn against every shard concurrently and returns the first
// error. The shard RPCs of one barrier round must overlap — a serial loop
// would turn the level barrier into nShards sequential round trips.
func (c *Coordinator) fanOut(fn func(shard int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.conns))
	for s := range c.conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	// A dead shard usually takes the survivors down with it indirectly
	// (their barrier waits starve and time out). Prefer the typed
	// root-cause error over whichever secondary failure happens to sit
	// on a lower shard index, so callers racing a shard loss always see
	// ErrShardDown.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrShardDown) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// RemoteGraph is a graph loaded across the coordinator's shards. It
// implements the query server's Backend contract, so a cluster-backed
// graph serves the same bfs/closeness/reachability/khop surface as a local
// one.
type RemoteGraph struct {
	c    *Coordinator
	name string
	n    int
}

// NumVertices returns the global vertex count.
func (rg *RemoteGraph) NumVertices() int { return rg.n }

// Pin returns the graph itself: the shipped slices are immutable, so like a
// local msbfs.Graph a RemoteGraph has one eternal version, reported as 0,
// and nothing to release.
func (rg *RemoteGraph) Pin(uint64) (msbfs.Pinned, error) { return rg, nil }

// Version is the graph's one version, 0 (see Pin).
func (rg *RemoteGraph) Version() uint64 { return 0 }

// Release is a no-op (see Pin).
func (rg *RemoteGraph) Release() {}

// LoadGraph partitions g into contiguous vertex slices and ships one to
// each shard. workers is the per-shard traversal parallelism. Neighbor
// ids stay global in the shipped adjacency; offsets are rebased per
// slice.
func (c *Coordinator) LoadGraph(ctx context.Context, name string, g *msbfs.Graph, workers int) (*RemoteGraph, error) {
	n := g.NumVertices()
	part := partition(n, len(c.addrs))
	offsets, adjacency := g.CSR()
	err := c.fanOut(func(s int) error {
		lo, hi := part.Range(s)
		local := make([]uint32, hi-lo+1)
		base := offsets[lo]
		for i := range local {
			local[i] = offsets[lo+i] - base
		}
		payload := encodeLoad(&loadMsg{
			name: name, shardID: s, numShards: len(c.addrs),
			n: n, workers: workers, peers: c.addrs,
			offsets: local, adjacency: adjacency[offsets[lo]:offsets[hi]],
		})
		_, err := c.call(ctx, s, msgLoad, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &RemoteGraph{c: c, name: name, n: n}, nil
}

// RunBatch executes sources as k-wide cluster traversals (batches of up
// to 64*BatchWords slots, 512 max) and streams every (source, vertex,
// depth) discovery to visit — the same contract as
// msbfs.Graph.MultiBFSVisitor, with visit always called sequentially as
// workerID 0, level by level: each level's discoveries in vertex order,
// a vertex's sources in slot order. A connection-level failure aborts with
// an error wrapping ErrShardDown.
func (rg *RemoteGraph) RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	opt = opt.Normalize()
	for _, s := range sources {
		if s < 0 || s >= rg.n {
			return nil, fmt.Errorf("cluster: source %d out of range [0,%d)", s, rg.n)
		}
	}
	perBatch := 64 * opt.BatchWords
	if perBatch <= 0 || perBatch > maxBatchSources {
		perBatch = maxBatchSources
	}
	start := time.Now()
	res := &msbfs.MultiResult{Sources: append([]int(nil), sources...)}
	if opt.RecordLevels {
		res.Levels = make([][]int32, len(sources))
	}
	for off := 0; off < len(sources); off += perBatch {
		hi := off + perBatch
		if hi > len(sources) {
			hi = len(sources)
		}
		if err := rg.runOne(ctx, sources[off:hi], off, opt, visit, res); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runOne drives a single k-wide batch: start on every shard, step the
// level barrier until all frontiers drain (or MaxDepth is reached), then
// release the shards' state. When the caller reads the answers (records
// levels or passes a visitor), every step reply carries the level's
// discoveries over the shard's rows, and emit hands them on after the
// barrier.
func (rg *RemoteGraph) runOne(ctx context.Context, batch []int, batchOffset int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int), res *msbfs.MultiResult) (err error) {
	c := rg.c
	c.met.Queries.Add(1)
	defer func() {
		if err != nil {
			c.met.QueryErrors.Add(1)
		}
	}()
	qid := c.nextID.Add(1)
	k := len(batch)

	// A traced coordinator announces its trace id on msgStart; the shards
	// then measure every step and piggyback the sub-phase times on the
	// reply. Untraced queries send a zero id, which encodeStart encodes as
	// zero extra bytes — the shards never read the clock for them. A failed
	// query's record is published too, holding the levels that completed.
	tv := c.tracer.StartTraversal("cluster/ms-pbfs", k)
	defer tv.Finish()
	var traceID uint64
	if tv != nil {
		traceID = tv.ID
	}

	// A batch whose caller reads no levels tells the shards to ship no
	// discoveries.
	read := opt.RecordLevels || visit != nil
	if err := c.fanOut(func(s int) error {
		_, err := c.call(ctx, s, msgStart, encodeStart(qid, rg.name, batch, traceID, read))
		return err
	}); err != nil {
		return err
	}
	// From here on the shards hold engine-borrowed state for qid; release
	// it on every path. On the error path a shard may already be gone, so
	// the cleanup is best-effort under its own short deadline.
	defer func() {
		endCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.fanOut(func(s int) error {
			if !c.conns[s].healthy() {
				return nil
			}
			_, err := c.call(endCtx, s, msgEnd, encodeQueryRef(qid))
			return err
		})
	}()

	// The sources are level 0, emitted here as Seed emits them in-process.
	var em *emitter
	if read {
		part := partition(rg.n, len(c.conns))
		em = &emitter{k: k, offset: batchOffset, part: part, visit: visit, found: make([][]byte, len(c.conns))}
		if opt.RecordLevels {
			em.levels = res.Levels[batchOffset : batchOffset+k]
			for i := range em.levels {
				em.levels[i] = slices.Repeat([]int32{core.NoLevel}, rg.n)
			}
		}
		for i, s := range batch {
			em.stamp(i, s, 0)
		}
	}

	// Level barrier. The sources seed level 0; iteration L discovers the
	// level-L states. totalNext counts (vertex, source) states cluster-wide,
	// the same accounting the in-process kernel's heuristic uses.
	totalNext := int64(k)
	var visited int64 = int64(k)
	level := 0
	var steps []obs.ShardStep // per-shard scratch, reused across levels
	if traceID != 0 {
		steps = make([]obs.ShardStep, len(c.conns))
	}
	for totalNext > 0 {
		if opt.MaxDepth > 0 && level >= opt.MaxDepth {
			break
		}
		level++
		iterStart := time.Now()
		var nextSum, sentSum, rawSum atomic.Int64
		stepPayload := encodeQueryRef(qid, uint64(level))
		if err := c.fanOut(func(s int) error {
			// Each fanOut goroutine writes only its own steps[s] element.
			var reqSent time.Time
			if traceID != 0 {
				steps[s] = obs.ShardStep{}
				reqSent = time.Now()
			}
			out, err := c.call(ctx, s, msgStep, stepPayload)
			if err != nil {
				return err
			}
			d, err := decodeStepDone(out, read)
			if err != nil {
				return err
			}
			if em != nil {
				em.found[s] = d.found
			}
			nextSum.Add(d.nextStates)
			sentSum.Add(d.sentBytes)
			rawSum.Add(d.rawBytes)
			if traceID != 0 && d.trace != nil {
				steps[s] = obs.ShardStep{
					Shard: s, Level: level,
					ReqSent: reqSent, ReplyRecv: time.Now(),
					Scan:       time.Duration(d.trace.scanNanos),
					Encode:     time.Duration(d.trace.encodeNanos),
					Send:       time.Duration(d.trace.sendNanos),
					Wait:       time.Duration(d.trace.waitNanos),
					Decode:     time.Duration(d.trace.decodeNanos),
					Apply:      time.Duration(d.trace.applyNanos),
					NextStates: d.nextStates, SentBytes: d.sentBytes, RawBytes: d.rawBytes,
					Scanned:  int64(d.trace.scanned),
					Frontier: int64(d.trace.frontier),
				}
			}
			return nil
		}); err != nil {
			return err
		}
		// The level's scanned edges and produced frontier are the sums of
		// the shards' own, each over its owned rows.
		var scanned, frontier int64
		for _, st := range steps {
			if !st.ReplyRecv.IsZero() {
				tv.RecordShardStep(st)
				scanned += st.Scanned
				frontier += st.Frontier
			}
		}
		totalNext = nextSum.Load()
		visited += totalNext
		c.met.FrontierBytes.Add(sentSum.Load())
		c.met.FrontierRawBytes.Add(rawSum.Load())
		tv.Record(obs.IterationRecord{
			Iteration:        level,
			Reason:           "cluster/1d-exchange",
			FrontierVertices: frontier,
			UpdatedStates:    totalNext,
			ScannedEdges:     scanned,
			Visited:          visited,
			Duration:         time.Since(iterStart),
			ExchangeBytes:    sentSum.Load(),
			ExchangeRawBytes: rawSum.Load(),
		})
		if em != nil {
			if err := em.emit(level); err != nil {
				return err
			}
		}
	}

	// VisitedStates counts (vertex, source) discoveries exactly as the
	// in-process kernel does: one per batch slot at seed time plus every
	// new state each level produced.
	res.VisitedStates += visited
	return nil
}

// emitter hands a reading batch's discoveries to its caller on the
// coordinator's one goroutine: it stamps the recorded levels and calls the
// visitor.
type emitter struct {
	k, offset int
	part      sched.Stripes
	levels    [][]int32 // the batch's rows of the result; nil unless recorded
	visit     func(workerID, sourceIdx, vertex, depth int)
	found     [][]byte // each shard's discovery section of the level in flight
}

// stamp records that slot i reached vertex v at depth.
func (em *emitter) stamp(i, v, depth int) {
	if em.levels != nil {
		em.levels[i][v] = int32(depth)
	}
	if em.visit != nil {
		em.visit(0, em.offset+i, v, depth)
	}
}

// emit walks the shards' discovery sections of one level, in shard order,
// and stamps every discovery as the codec reads it, so a level costs its
// discoveries, not the shard's rows. A malformed section, or one with a
// bit at a slot the batch does not have, fails the batch.
func (em *emitter) emit(level int) error {
	w := (em.k + 63) / 64
	for s, sec := range em.found {
		lo, hi := em.part.Range(s)
		err := visitDelta(sec, hi-lo, hi-lo, w, func(j int, word uint64) error {
			v, base := lo+j/w, (j%w)*64
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				if i >= em.k {
					return fmt.Errorf("vertex %d discovered by slot %d of %d", v, i, em.k)
				}
				em.stamp(i, v, level)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("cluster: shard %d level %d discoveries: %w", s, level, err)
		}
	}
	return nil
}
