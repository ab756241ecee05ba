package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// DefaultStepTimeout bounds how long a shard waits at the per-level
// barrier for peer deltas before declaring the step failed. It is the
// shard-side backstop behind the coordinator's per-request deadlines: a
// dead peer starves the barrier, the timeout turns the starvation into an
// error reply, and the coordinator fails the query with ErrShardDown.
const DefaultStepTimeout = 30 * time.Second

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
// each loaded graph, runs every query as a core.MSPBFSEngine over that
// slice's rows, one level per step, and exchanges the foreign stripes of
// each level's next frontier with its peers directly. Engines come from one
// long-lived core.Engine, so repeated queries over a partition recycle
// their shells exactly as the single-process server does.
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

// shardGraph is one graph's local slice, held as an owned-rows CSR: all n
// vertices, the shipped rows at [lo,hi) and empty rows everywhere else.
type shardGraph struct {
	name    string
	part    sched.Stripes
	shardID int
	lo, hi  int
	csr     *graph.Graph
	workers int
}

// shardQuery is the per-query traversal state on one shard: an MS-PBFS
// engine as wide as a single-process one, seeded with the whole batch. mu
// serializes the query's requests, so msgEnd waits for a step in flight.
type shardQuery struct {
	mu     sync.Mutex
	g      *shardGraph
	words  int
	e      *core.MSPBFSEngine // nil once releaseQuery closed it
	levels [][]int32          // k rows over all n vertices, [lo,hi) this shard's answer; nil unless msgStart asked for levels
	slab   *[]int32           // the levelSlabs slab levels is cut from
	depth  int                // the last level stepped

	inbox chan *deltaMsg

	// traced is set when the coordinator's msgStart carried a trace id;
	// every step then measures its sub-phases and piggybacks a stepTrace
	// section on the reply. Untraced queries never read the clock.
	traced bool
	// tv is the shard-local flight record (nil unless the shard has its
	// own Tracer AND the query is traced).
	tv *obs.Traversal
}

// levelSlabs recycles the shards' level rows: a recording query cuts its k
// n-long rows from one slab, and releaseQuery puts the slab back.
var levelSlabs sync.Pool // of *[]int32

// takeLevelRows cuts k n-long rows from a pooled slab, refilled with
// NoLevel whatever its last query left there: the fill is the scrub.
func takeLevelRows(n, k int) (*[]int32, [][]int32) {
	slab, _ := levelSlabs.Get().(*[]int32)
	if slab == nil || cap(*slab) < n*k {
		slab = new([]int32)
		*slab = make([]int32, n*k)
	}
	all := (*slab)[:n*k]
	for i := range all {
		all[i] = core.NoLevel
	}
	rows := make([][]int32, k)
	for i := range rows {
		rows[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return slab, rows
}

// pendingDelta is one encoded peer delta awaiting its send: the exchange
// encodes all deltas serially, then ships them concurrently.
type pendingDelta struct {
	peer  int
	frame []byte
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
	part := partition(m.n, m.numShards)
	lo, hi := part.Range(m.shardID)
	rlen := hi - lo
	if len(m.offsets) != rlen+1 {
		return fmt.Errorf("graph %q: %d offsets for %d local vertices", m.name, len(m.offsets), rlen)
	}
	csr, err := graph.OwnedRows(m.n, lo, m.offsets, m.adjacency)
	if err != nil {
		return fmt.Errorf("graph %q: %w", m.name, err)
	}
	workers := m.workers
	if workers < 1 || workers > s.opt.Workers {
		workers = s.opt.Workers
	}
	sg := &shardGraph{
		name: m.name, part: part, shardID: m.shardID,
		lo: lo, hi: hi, csr: csr, workers: workers,
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
	n := g.part.N()
	for _, src := range m.sources {
		if src < 0 || src >= n {
			return fmt.Errorf("source %d out of range [0,%d)", src, n)
		}
	}

	q := &shardQuery{
		g: g, words: (k + 63) / 64,
		inbox:  make(chan *deltaMsg, g.part.Parts()),
		traced: m.traceID != 0,
	}
	if q.traced {
		// StartTraversal is nil-safe: without a shard-local Tracer the
		// query still measures and ships sub-phase times, it just keeps no
		// local copy.
		q.tv = s.opt.Tracer.StartTraversal("cluster/shard", k)
	}
	// The whole batch is seeded on every shard, as a single-process run
	// seeds it: a foreign source's row is empty, so it scans nothing, and
	// its level entry lies outside the rows handleResult returns. A batch
	// whose caller reads no levels records none.
	q.e = core.NewMSPBFSEngine(g.csr, core.Options{
		Workers: g.workers, BatchWords: q.words, Direction: core.TopDownOnly, Engine: s.eng,
	}) //bfs:arena-held the engine's shell and pool live across RPCs until releaseQuery closes it at msgEnd
	if m.record {
		q.slab, q.levels = takeLevelRows(n, k)
	}
	q.e.Seed(m.sources, 0, q.levels, nil)

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

// lockQuery returns query qid locked for one request; the caller unlocks
// q.mu. A query whose engine releaseQuery closed is an error.
func (s *Shard) lockQuery(qid uint64) (*shardQuery, error) {
	s.mu.Lock()
	q := s.queries[qid]
	s.mu.Unlock()
	if q == nil {
		return nil, fmt.Errorf("unknown query %d", qid)
	}
	q.mu.Lock()
	if q.e == nil {
		q.mu.Unlock()
		return nil, fmt.Errorf("query %d ended", qid)
	}
	return q, nil
}

// handleStep runs one level of the query's engine: the scatter and inbox
// apply over this shard's rows, the exchange of next's stripes with the
// peers (stepExchange.run), then the resolve, which is the apply phase.
//
// When the query is traced each phase boundary stamps the monotonic clock
// into a stepTrace that rides back on the reply; untraced queries take the
// identical code path but never call time.Now — the tracing cost is one nil
// test per phase boundary (the untraced cluster/inproc perf scenario times
// this path).
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
	q, err := s.lockQuery(qid)
	if err != nil {
		return nil, err
	}
	defer q.mu.Unlock()
	// The engine numbers levels itself; the coordinator's must agree.
	if level != q.depth+1 {
		return nil, fmt.Errorf("step for level %d after level %d", level, q.depth)
	}
	q.depth = level

	x := &stepExchange{s: s, q: q, qid: qid, level: level}
	if q.traced {
		x.tr = &stepTrace{}
		x.start = time.Now()
		x.mark = x.start
	}
	frontier, next, scanned, err := q.e.Step(x.run)
	if err != nil {
		return nil, err
	}
	d := stepDone{nextStates: next, sentBytes: x.sent, rawBytes: x.raw}
	if x.tr != nil {
		x.tr.applyNanos = x.lap()
		d.trace = x.tr
		q.tv.Record(obs.IterationRecord{
			Iteration:        level,
			Reason:           "cluster/shard-step",
			FrontierVertices: frontier,
			UpdatedStates:    next,
			ScannedEdges:     scanned,
			Duration:         x.mark.Sub(x.start),
			ExchangeBytes:    x.sent,
			ExchangeRawBytes: x.raw,
		})
	}
	return encodeStepDone(d), nil
}

// stepExchange is one step's exchange point, run by the engine after the
// inbox apply, when next holds this shard's scatter. The engine sizes next
// to the shard CSR's active prefix; every vertex past it is isolated, so
// its row is zero here and in every peer's delta.
// A 1D-partitioned top-down level sends each peer its slice of the next
// frontier (Buluç & Madduri, arXiv 1104.4518), so run ships every peer its
// stripe of next and zeroes it, then ORs the peers' deltas into this
// shard's own stripe: the resolve that follows sees exactly the owned
// rows' discoveries. No loop filters neighbors on ownership.
type stepExchange struct {
	s         *Shard
	q         *shardQuery
	qid       uint64
	level     int
	sent, raw int64 // codec bytes and raw bitset bytes shipped

	tr          *stepTrace // nil when untraced: the clock is never read
	start, mark time.Time
}

// lap returns the time since the last phase boundary and moves the mark
// (traced steps only).
func (x *stepExchange) lap() uint64 {
	now := time.Now()
	d := now.Sub(x.mark)
	x.mark = now
	return uint64(d)
}

func (x *stepExchange) run(next []uint64) error {
	q, g, w := x.q, x.q.g, x.q.words
	if x.tr != nil {
		x.tr.scanNanos = x.lap()
	}
	if g.lo == g.hi {
		return nil // an empty slice scans nothing: no deltas out or in
	}

	// Every non-empty peer gets exactly one delta per level (empty ones
	// included), so each barrier expects one delta per send. The codec
	// encodes serially (CPU work on this shard, and a clean encode|send
	// split for the trace); the sends then run in parallel supervised
	// goroutines, since one slow peer link must not serialize the
	// exchange behind another.
	var sends []pendingDelta
	rows := len(next) / w
	for p := 0; p < g.part.Parts(); p++ {
		plo, phi := g.part.Range(p)
		if p == g.shardID || plo == phi {
			continue
		}
		stripe := next[min(plo, rows)*w : min(phi, rows)*w]
		delta := encodeDelta(nil, stripe, phi-plo, w)
		clear(stripe) //bfs:singlewriter the exchange runs between the engine's barriers, workers parked
		sends = append(sends, pendingDelta{peer: p,
			frame: encodeDelta32(&deltaMsg{fromShard: g.shardID, level: x.level, delta: delta})})
		x.sent += int64(len(delta))
		x.raw += int64(rawBytes(phi-plo, w))
	}
	if x.tr != nil {
		x.tr.encodeNanos = x.lap()
	}
	errs := make([]error, len(sends))
	var wg sync.WaitGroup
	for i := range sends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = x.s.peerFor(sends[i].peer).send(x.qid, sends[i].frame, x.s.opt.StepTimeout)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if x.tr != nil {
		x.tr.sendNanos = x.lap()
	}

	// Barrier: one delta from every non-empty peer, ORed into this
	// shard's stripe on this goroutine while the workers are parked.
	// Traced steps split the wait into blocked time and codec time.
	own := next[min(g.lo, rows)*w : min(g.hi, rows)*w]
	timer := time.NewTimer(x.s.opt.StepTimeout)
	defer timer.Stop()
	for got := 0; got < len(sends); got++ {
		select {
		case m := <-q.inbox:
			if x.tr != nil {
				x.tr.waitNanos += x.lap()
			}
			if m.level != x.level {
				return fmt.Errorf("peer %d sent level %d during level %d", m.fromShard, m.level, x.level)
			}
			if err := decodeDelta(m.delta, own, g.hi-g.lo, w); err != nil {
				return err
			}
			if x.tr != nil {
				x.tr.decodeNanos += x.lap()
			}
		case <-timer.C:
			return fmt.Errorf("level %d barrier: %d of %d peer deltas after %v",
				x.level, got, len(sends), x.s.opt.StepTimeout)
		case <-x.s.closedCh:
			return errors.New(errShardClosing)
		}
	}
	return nil
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
	q, err := s.lockQuery(qid)
	if err != nil {
		return nil, err
	}
	defer q.mu.Unlock()
	if q.levels == nil {
		return nil, fmt.Errorf("query %d records no levels", qid)
	}
	return encodeResultRows(q.levels, q.g.lo, q.g.hi), nil
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

// releaseQuery publishes the shard-local flight record (nil-safe: tv is set
// only for traced queries on shards with their own Tracer), puts the level
// rows' slab back and hands the engine back, after any step in flight.
func (s *Shard) releaseQuery(q *shardQuery) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tv.Finish(0, 0)
	if q.slab != nil {
		levelSlabs.Put(q.slab)
	}
	q.e.Close()
	q.e, q.levels, q.slab = nil, nil, nil
}
