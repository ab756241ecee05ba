package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/sched"
)

// DefaultStepTimeout bounds how long a shard waits at the per-level
// barrier for peer deltas before declaring the step failed. It is the
// shard-side backstop behind the coordinator's per-request deadlines: a
// dead peer starves the barrier, the timeout turns the starvation into an
// error reply, and the coordinator fails the query with ErrShardDown.
const DefaultStepTimeout = 30 * time.Second

// shardSplitSize is the task granularity of the per-shard parallel scan
// and apply loops — the paper's default 512-vertex task size.
const shardSplitSize = 512

// maxBatchSources is the widest k-wide batch a query may carry
// (8 words x 64 bits, the bitset.MaxWords limit).
const maxBatchSources = 64 * bitset.MaxWords

// ShardOptions tunes a shard server.
type ShardOptions struct {
	// Workers caps the per-step traversal parallelism; the coordinator's
	// load request may lower it. <=0 means 1.
	Workers int
	// StepTimeout bounds the per-level barrier wait (0: DefaultStepTimeout).
	StepTimeout time.Duration
	// Tracer, when non-nil, keeps a shard-local flight record of every
	// traced query (one Traversal per query with per-level iteration
	// records). It only ever sees queries whose msgStart carried a trace
	// id: shards trace when the coordinator asks, never on their own, so
	// an untraced query costs nothing here regardless of this field.
	Tracer *obs.Tracer
}

// Shard is one bfsd shard process: it owns a contiguous vertex slice of
// each loaded graph, runs the local part of every level-synchronous
// MS-PBFS step, and exchanges delta frontiers with its peers directly.
// All state a query borrows (bitset states, level rows, worker pools)
// comes from one long-lived core.Engine, so repeated queries over a
// partition recycle their arrays exactly as the single-process server
// does.
type Shard struct {
	opt ShardOptions
	eng *core.Engine

	mu       sync.Mutex
	id       int // shard index; -1 until the first load announces it
	peers    []*peerLink
	graphs   map[string]*shardGraph
	queries  map[uint64]*shardQuery
	closed   bool
	closedCh chan struct{}
	lis      net.Listener
	conns    map[net.Conn]struct{} // accepted connections, closed on Close

	wg sync.WaitGroup // accept loop, connection read loops, request handlers
}

// shardGraph is one graph's local slice.
type shardGraph struct {
	name    string
	part    Partition
	shardID int
	lo, hi  int
	rlen    int
	offsets []int64  // rlen+1, rebased to the slice
	adj     []uint32 // global vertex ids
	workers int
}

// shardQuery is the per-query traversal state on one shard.
type shardQuery struct {
	g     *shardGraph
	k     int
	words int

	seen, cur, next *bitset.State // rlen x words, engine-borrowed
	acc             []*bitset.State
	accLo           []int
	levels          [][]int32 // k rows x rlen

	// shadows is the worker-owned scatter substrate for the local half of
	// the step (same protocol as MSPBFSEngine): local-neighbor writes go
	// to worker-private slabs with plain stores and the stripe owners
	// OR-merge into next before the delta exchange, so the encoder always
	// reads fully published owner stripes. Peer accumulators keep CAS —
	// their traffic is the partition cut, far smaller than the local scan.
	// Nil when the local slice is empty or the query runs one worker.
	shadows *bitset.Shadows

	pool        *sched.Pool
	releasePool func()
	tq          *sched.TaskQueues

	inbox        chan *deltaMsg
	expectDeltas int

	counters []stepCounter

	// traced is set when the coordinator's msgStart carried a trace id;
	// every step then measures its sub-phases and piggybacks a stepTrace
	// section on the reply. Untraced queries never read the clock.
	traced bool
	// tv is the shard-local flight record (nil unless the shard has its
	// own Tracer AND the query is traced).
	tv *obs.Traversal
}

// stepCounter is a per-worker new-state tally, cache-line padded like the
// kernels' padCounter so neighboring workers don't share a line.
type stepCounter struct {
	v int64
	_ [56]byte
}

// pendingDelta is one encoded peer delta awaiting its send: phase 2
// encodes all deltas serially, then ships them concurrently.
type pendingDelta struct {
	peer     int
	frame    []byte
	encBytes int64
	rawBytes int64
}

// NewShard creates an idle shard server with its own execution engine.
func NewShard(opt ShardOptions) *Shard {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.StepTimeout <= 0 {
		opt.StepTimeout = DefaultStepTimeout
	}
	return &Shard{
		opt:      opt,
		eng:      core.NewEngine(),
		id:       -1,
		graphs:   make(map[string]*shardGraph),
		queries:  make(map[uint64]*shardQuery),
		closedCh: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts control and peer connections on lis until Close. It
// returns nil after a graceful Close and the accept error otherwise.
func (s *Shard) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("cluster: shard closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		c, err := lis.Accept()
		if err != nil {
			select {
			case <-s.closedCh:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
			s.serveConn(c)
		}()
	}
}

// Close stops serving, fails in-flight barrier waits, waits for every
// supervised goroutine, and releases all engine-held state.
func (s *Shard) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.closedCh)
	lis := s.lis
	peers := s.peers
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, pl := range peers {
		if pl != nil {
			pl.close()
		}
	}
	// Accepted connections block their read loops until closed here; the
	// peers' outbound links to this shard fail on their side.
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	queries := s.queries
	s.queries = make(map[uint64]*shardQuery)
	s.mu.Unlock()
	for _, q := range queries {
		s.releaseQuery(q)
	}
	s.eng.Close()
}

// connWriter serializes reply frames on one connection.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

func (cw *connWriter) reply(typ byte, id uint64, payload []byte) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	// A write error means the requester is gone; it will observe the
	// broken connection itself, so the error is dropped here.
	_ = writeFrame(cw.c, typ, id, payload)
}

// serveConn reads frames until the connection closes. Delta frames are
// routed inline to their query's inbox (never blocking: the inbox is
// sized for a full barrier round); request frames run in their own
// supervised goroutine so a long step never stalls the read loop and
// concurrent queries interleave freely on one connection.
func (s *Shard) serveConn(c net.Conn) {
	defer c.Close()
	cw := &connWriter{c: c}
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		typ, id, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if typ == msgDelta {
			s.routeDelta(id, payload)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(cw, typ, id, payload)
		}()
	}
}

func (s *Shard) handle(cw *connWriter, typ byte, id uint64, payload []byte) {
	var out []byte
	var err error
	switch typ {
	case msgLoad:
		err = s.handleLoad(payload)
	case msgStart:
		err = s.handleStart(payload)
	case msgStep:
		out, err = s.handleStep(payload)
	case msgResult:
		out, err = s.handleResult(payload)
	case msgEnd:
		err = s.handleEnd(payload)
	case msgDrop:
		err = s.handleDrop(payload)
	default:
		err = fmt.Errorf("unknown request type %#02x", typ)
	}
	if err != nil {
		cw.reply(msgErr, id, []byte(err.Error()))
		return
	}
	cw.reply(msgOK, id, out)
}

// routeDelta hands an inbound peer delta to its query. Unknown query ids
// are dropped silently: the query may have been torn down by an error on
// another shard while this delta was in flight.
func (s *Shard) routeDelta(qid uint64, payload []byte) {
	m, err := decodeDelta32(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	q := s.queries[qid]
	s.mu.Unlock()
	if q == nil {
		return
	}
	select {
	case q.inbox <- m:
	default:
		// Inbox full means the peer violated the level barrier; the
		// starved step will time out and fail the query.
	}
}

func (s *Shard) handleLoad(payload []byte) error {
	m, err := decodeLoad(payload)
	if err != nil {
		return err
	}
	if m.shardID < 0 || m.shardID >= m.numShards {
		return fmt.Errorf("shard id %d out of range [0,%d)", m.shardID, m.numShards)
	}
	part := MakePartition(m.n, m.numShards)
	lo, hi := part.Range(m.shardID)
	rlen := hi - lo
	if len(m.offsets) != rlen+1 {
		return fmt.Errorf("graph %q: %d offsets for %d local vertices", m.name, len(m.offsets), rlen)
	}
	if rlen > 0 && m.offsets[0] != 0 {
		return fmt.Errorf("graph %q: offsets not rebased (first = %d)", m.name, m.offsets[0])
	}
	for i := 1; i <= rlen; i++ {
		if m.offsets[i] < m.offsets[i-1] {
			return fmt.Errorf("graph %q: offsets decrease at %d", m.name, i)
		}
	}
	if rlen > 0 && m.offsets[rlen] != int64(len(m.adjacency)) {
		return fmt.Errorf("graph %q: offsets end at %d, adjacency has %d", m.name, m.offsets[rlen], len(m.adjacency))
	}
	for _, w := range m.adjacency {
		if int(w) >= m.n {
			return fmt.Errorf("graph %q: neighbor %d out of range [0,%d)", m.name, w, m.n)
		}
	}
	workers := m.workers
	if workers < 1 || workers > s.opt.Workers {
		workers = s.opt.Workers
	}
	sg := &shardGraph{
		name: m.name, part: part, shardID: m.shardID,
		lo: lo, hi: hi, rlen: rlen,
		offsets: m.offsets, adj: m.adjacency, workers: workers,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New(errShardClosing)
	}
	if s.id == -1 {
		s.id = m.shardID
		s.peers = make([]*peerLink, m.numShards)
		for i, addr := range m.peers {
			if i != m.shardID {
				s.peers[i] = &peerLink{addr: addr}
			}
		}
	} else if s.id != m.shardID || len(s.peers) != m.numShards {
		return fmt.Errorf("shard is %d of %d, load says %d of %d", s.id, len(s.peers), m.shardID, m.numShards)
	}
	s.graphs[m.name] = sg
	return nil
}

func (s *Shard) handleDrop(payload []byte) error {
	r := &wireReader{b: payload}
	name, err := r.str()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.graphs, name)
	return nil
}

func (s *Shard) handleStart(payload []byte) error {
	m, err := decodeStart(payload)
	if err != nil {
		return err
	}
	qid := m.qid
	s.mu.Lock()
	g := s.graphs[m.name]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errors.New(errShardClosing)
	}
	if g == nil {
		return fmt.Errorf("graph %q not loaded", m.name)
	}
	k := len(m.sources)
	if k < 1 || k > maxBatchSources {
		return fmt.Errorf("batch width %d out of range [1,%d]", k, maxBatchSources)
	}
	words := (k + 63) / 64
	n := g.part.N()
	for _, src := range m.sources {
		if src < 0 || src >= n {
			return fmt.Errorf("source %d out of range [0,%d)", src, n)
		}
	}

	q := &shardQuery{
		g: g, k: k, words: words,
		acc:    make([]*bitset.State, g.part.NumShards()),
		accLo:  make([]int, g.part.NumShards()),
		inbox:  make(chan *deltaMsg, g.part.NumShards()),
		traced: m.traceID != 0,
	}
	if q.traced {
		// StartTraversal is nil-safe: without a shard-local Tracer the
		// query still measures and ships sub-phase times, it just keeps no
		// local copy.
		q.tv = s.opt.Tracer.StartTraversal("cluster/shard", k)
	}
	q.seen = s.eng.BorrowState(g.rlen, words) //bfs:arena-held query-lifetime state; handleEnd releases it
	q.cur = s.eng.BorrowState(g.rlen, words)  //bfs:arena-held query-lifetime state; handleEnd releases it
	q.next = s.eng.BorrowState(g.rlen, words) //bfs:arena-held query-lifetime state; handleEnd releases it
	for p := 0; p < g.part.NumShards(); p++ {
		plo, phi := g.part.Range(p)
		q.accLo[p] = plo
		if p == g.shardID || phi == plo {
			continue // no accumulator for self or for empty peer ranges
		}
		// Accumulators address every non-empty peer; conversely only
		// shards that own vertices ever discover (and send) anything, so
		// this shard expects one inbound delta per non-empty peer — but
		// none at all if its own range is empty.
		q.acc[p] = s.eng.BorrowState(phi-plo, words) //bfs:arena-held accumulators live for the query; handleEnd releases them
		if g.rlen > 0 {
			q.expectDeltas++
		}
	}
	q.levels = make([][]int32, k)
	for i := range q.levels {
		q.levels[i] = s.eng.BorrowLevels(g.rlen) //bfs:arena-held rows live for the query; handleEnd releases them
		for v := range q.levels[i] {
			q.levels[i][v] = core.NoLevel
		}
	}
	if g.rlen > 0 {
		q.pool, q.releasePool = s.eng.BorrowPool(g.workers) //bfs:arena-held pool lives for the query; handleEnd releases it
		// Stripe-affine task layout: worker w's queue holds the tasks of
		// its own contiguous stripe (stealing still crosses stripes), so
		// the static merge below covers every stripe exactly once with
		// owner == workerID.
		q.tq = sched.CreateStripeTasks(numa.AlignedRanges(g.rlen, g.workers, shardSplitSize), shardSplitSize)
		q.counters = make([]stepCounter, g.workers)
		if g.workers > 1 {
			q.shadows = bitset.NewShadows(g.rlen*words, g.workers)
		}
	}

	// Seed the slots this shard owns: source at depth 0, already seen,
	// already in the current frontier — the same seeding MS-PBFS does.
	for i, src := range m.sources {
		if src >= g.lo && src < g.hi {
			v := src - g.lo
			q.seen.Set(v, i)
			q.cur.Set(v, i)
			q.levels[i][v] = 0
		}
	}

	s.mu.Lock()
	var regErr error
	switch {
	case s.closed:
		regErr = errors.New(errShardClosing)
	default:
		if _, dup := s.queries[qid]; dup {
			regErr = fmt.Errorf("query %d already started", qid)
		} else {
			s.queries[qid] = q
		}
	}
	s.mu.Unlock()
	if regErr != nil {
		s.releaseQuery(q)
	}
	return regErr
}

func (s *Shard) getQuery(qid uint64) (*shardQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[qid]
	if q == nil {
		return nil, fmt.Errorf("unknown query %d", qid)
	}
	return q, nil
}

// handleStep runs one level-synchronous BFS iteration on the local slice:
// scan the owned frontier into the local next state and the per-peer
// delta accumulators, stream the encoded deltas to the peers, absorb the
// peers' inbound deltas, then apply: new = next &^ seen, fold into seen,
// promote to the current frontier, record levels.
//
// When the query is traced each phase boundary stamps the monotonic clock
// into a stepTrace that rides back on the reply; untraced queries take
// the identical code path but never call time.Now — the tracing cost is
// one nil test per phase boundary (the untraced cluster/inproc perf
// scenario times this path).
func (s *Shard) handleStep(payload []byte) ([]byte, error) {
	r := &wireReader{b: payload}
	qid, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	level, err := r.intv()
	if err != nil {
		return nil, err
	}
	q, err := s.getQuery(qid)
	if err != nil {
		return nil, err
	}
	g := q.g

	var tr *stepTrace
	var stepStart, mark time.Time
	if q.traced {
		tr = &stepTrace{}
		stepStart = time.Now()
		mark = stepStart
	}

	// Phase 1: local top-down scan. Frontier rows scatter local neighbors
	// into the worker's private shadow slab with plain stores (worker 0
	// writes the canonical next directly; single-worker queries have no
	// shadows and write next unshared), and remote neighbors into the
	// per-peer accumulators (CAS-OR: several workers may hit one vertex).
	if g.rlen > 0 {
		words := q.words
		nextW := q.next.Words()
		q.tq.Reset()
		q.pool.ParallelFor(q.tq, func(workerID int, rg sched.Range) {
			tgt := nextW
			if q.shadows != nil {
				tgt = q.shadows.Writer(workerID, nextW)
			}
			for v := rg.Lo; v < rg.Hi; v++ {
				if !q.cur.Any(v) {
					continue
				}
				row := q.cur.Row(v)
				for _, w := range g.adj[g.offsets[v]:g.offsets[v+1]] {
					gw := int(w)
					if gw >= g.lo && gw < g.hi {
						off := (gw - g.lo) * words
						for wi := 0; wi < words; wi++ {
							tgt[off+wi] |= row[wi] //bfs:singlewriter worker-private slab (or unshared next when solo); published by the stripe merge below
						}
						continue
					}
					p := g.part.Owner(gw)
					q.acc[p].AtomicOrVertex(gw-q.accLo[p], row)
				}
			}
		})
		// Publish: stripe owners fold every shadow into next at the phase
		// barrier, so the peer-delta decode (phase 3, plain OR) and the
		// apply pass (phase 4) read fully published owner stripes. Static
		// fetch keeps owner == workerID per stripe.
		if q.shadows != nil {
			q.tq.Reset()
			q.pool.ParallelForStatic(q.tq, func(workerID int, rg sched.Range) {
				q.shadows.MergeRange(workerID, nextW, rg.Lo*words, rg.Hi*words)
			})
		}
	}
	if tr != nil {
		now := time.Now()
		tr.scanNanos = uint64(now.Sub(mark))
		mark = now
	}

	// Phase 2: per-peer delta streams — every non-empty peer gets exactly
	// one delta per level (empty deltas included, so the receiver's
	// barrier count is deterministic). The codec encodes serially (it is
	// CPU work on this shard, and a serial pass gives the trace a clean
	// encode|send split); the sends then run in parallel supervised
	// goroutines, since one slow peer link must not serialize the exchange
	// behind another.
	var sends []pendingDelta
	if g.rlen > 0 {
		for p := range q.acc {
			if q.acc[p] == nil {
				continue
			}
			a := q.acc[p]
			plen := a.Len()
			delta := encodeDelta(nil, a.Words(), plen, q.words)
			a.ZeroRange(0, plen)
			sends = append(sends, pendingDelta{
				peer:     p,
				frame:    encodeDelta32(&deltaMsg{fromShard: g.shardID, level: level, delta: delta}),
				encBytes: int64(len(delta)),
				rawBytes: int64(rawBytes(plen, q.words)),
			})
		}
	}
	if tr != nil {
		now := time.Now()
		tr.encodeNanos = uint64(now.Sub(mark))
		mark = now
	}
	var sentBytes, rawTotal int64
	if len(sends) > 0 {
		errs := make([]error, len(sends))
		var wg sync.WaitGroup
		for i := range sends {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.peerFor(sends[i].peer).send(qid, sends[i].frame, s.opt.StepTimeout)
			}(i)
		}
		wg.Wait()
		for i, sendErr := range errs {
			if sendErr != nil {
				return nil, sendErr
			}
			sentBytes += sends[i].encBytes
			rawTotal += sends[i].rawBytes
		}
	}
	if tr != nil {
		now := time.Now()
		tr.sendNanos = uint64(now.Sub(mark))
		mark = now
	}

	// Phase 3: barrier — absorb one delta from every non-empty peer.
	// Decoding ORs into next sequentially; the local scan has finished,
	// so no CAS races the plain OR. Traced steps split the phase into
	// blocked time (wait) and codec time (decode) per inbound delta.
	if q.expectDeltas > 0 {
		timer := time.NewTimer(s.opt.StepTimeout)
		defer timer.Stop()
		for got := 0; got < q.expectDeltas; got++ {
			select {
			case m := <-q.inbox:
				if tr != nil {
					now := time.Now()
					tr.waitNanos += uint64(now.Sub(mark))
					mark = now
				}
				if m.level != level {
					return nil, fmt.Errorf("peer %d sent level %d during level %d", m.fromShard, m.level, level)
				}
				if err := decodeDelta(m.delta, q.next.Words(), g.rlen, q.words); err != nil {
					return nil, err
				}
				if tr != nil {
					now := time.Now()
					tr.decodeNanos += uint64(now.Sub(mark))
					mark = now
				}
			case <-timer.C:
				return nil, fmt.Errorf("level %d barrier: %d of %d peer deltas after %v",
					level, got, q.expectDeltas, s.opt.StepTimeout)
			case <-s.closedCh:
				return nil, errors.New(errShardClosing)
			}
		}
	}

	// Phase 4: apply. Ranges are disjoint so plain word ops suffice.
	var nextStates int64
	if g.rlen > 0 {
		for w := range q.counters {
			q.counters[w].v = 0
		}
		seenW, curW, nextW := q.seen.Words(), q.cur.Words(), q.next.Words()
		words := q.words
		q.tq.Reset()
		q.pool.ParallelFor(q.tq, func(workerID int, rg sched.Range) {
			var count int64
			for v := rg.Lo; v < rg.Hi; v++ {
				off := v * words
				for wi := 0; wi < words; wi++ {
					nw := nextW[off+wi] &^ seenW[off+wi]
					seenW[off+wi] |= nw //bfs:singlewriter apply phase partitions vertices across workers
					curW[off+wi] = nw   //bfs:singlewriter apply phase partitions vertices across workers
					nextW[off+wi] = 0   //bfs:singlewriter apply phase partitions vertices across workers
					if nw == 0 {
						continue
					}
					count += int64(bits.OnesCount64(nw))
					base := wi * 64
					for b := nw; b != 0; b &= b - 1 {
						q.levels[base+bits.TrailingZeros64(b)][v] = int32(level)
					}
				}
			}
			q.counters[workerID].v += count
		})
		for w := range q.counters {
			nextStates += q.counters[w].v
		}
	}
	d := stepDone{
		nextStates: nextStates,
		sentBytes:  sentBytes,
		rawBytes:   rawTotal,
	}
	if tr != nil {
		now := time.Now()
		tr.applyNanos = uint64(now.Sub(mark))
		d.trace = tr
		q.tv.Record(obs.IterationRecord{
			Iteration:        level,
			Reason:           "cluster/shard-step",
			Next:             nextStates,
			Duration:         now.Sub(stepStart),
			ExchangeBytes:    sentBytes,
			ExchangeRawBytes: rawTotal,
		})
	}
	return encodeStepDone(d), nil
}

func (s *Shard) peerFor(p int) *peerLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[p]
}

func (s *Shard) handleResult(payload []byte) ([]byte, error) {
	r := &wireReader{b: payload}
	qid, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	q, err := s.getQuery(qid)
	if err != nil {
		return nil, err
	}
	return encodeResultRows(q.levels, q.g.rlen), nil
}

// handleEnd releases a query's engine-held state. Ending an unknown query
// succeeds: the coordinator tears queries down best-effort after errors.
func (s *Shard) handleEnd(payload []byte) error {
	r := &wireReader{b: payload}
	qid, err := r.uvarint()
	if err != nil {
		return err
	}
	s.mu.Lock()
	q := s.queries[qid]
	delete(s.queries, qid)
	s.mu.Unlock()
	if q != nil {
		s.releaseQuery(q)
	}
	return nil
}

func (s *Shard) releaseQuery(q *shardQuery) {
	// Publish the shard-local flight record (nil-safe: tv is set only for
	// traced queries on shards with their own Tracer).
	q.tv.Finish(0, 0)
	s.eng.ReturnState(q.seen)
	s.eng.ReturnState(q.cur)
	s.eng.ReturnState(q.next)
	for _, a := range q.acc {
		if a != nil {
			s.eng.ReturnState(a)
		}
	}
	s.eng.ReleaseLevels(q.levels...)
	if q.releasePool != nil {
		q.releasePool()
	}
}
