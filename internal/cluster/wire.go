package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Wire format. Every message is one length-prefixed frame:
//
//	uint32 BE  frame length (bytes after this field: 1 + 8 + len(payload))
//	byte       message type
//	uint64 BE  request id (coordinator RPCs demux replies by it; peer
//	           delta frames carry the query id here)
//	[]byte     payload (per-type encoding, little-endian fixed ints +
//	           uvarints; see the message builders below)
//
// Coordinator→shard RPCs are strict request/reply pairs matched by
// request id, so many requests can be in flight on one connection and
// replies may arrive out of order. Shard→shard delta frames are
// fire-and-forget: no reply, failures surface as connection errors on
// the sender and a barrier timeout on the starved receiver.

const (
	// Coordinator → shard requests.
	msgLoad   = 0x01 // load a graph slice: see encodeLoad
	msgStart  = 0x02 // begin a query: graph name, k sources
	msgStep   = 0x03 // run one BFS level
	msgResult = 0x04 // fetch the query's level rows
	msgEnd    = 0x05 // release the query's state
	msgDrop   = 0x06 // unload a graph

	// Shard → shard.
	msgDelta = 0x10 // delta frontier: fromShard, level, codec payload

	// Replies.
	msgOK  = 0x20 // success; payload depends on the request type
	msgErr = 0x21 // failure; payload is the error string
)

// maxFrame bounds accepted frame sizes. The largest legitimate frames are
// graph-slice loads (adjacency of one shard) and dense level-row results;
// 1 GiB leaves headroom for scale-25-class slices while stopping a
// corrupted length prefix from allocating the universe.
const maxFrame = 1 << 30

const frameHeader = 1 + 8 // type + request id

// errShardClosing is the msgErr text a shard replies with when a request
// races its shutdown. The coordinator maps exactly this reply onto the
// connection-failure path (ErrShardDown): the connection is about to
// drop anyway, and callers must see the typed fail-fast error rather
// than a transient-looking RPC error.
const errShardClosing = "shard closed"

// writeFrame sends one frame as a single Write call so concurrent writers
// (serialized by the caller's mutex) never interleave partial frames.
func writeFrame(w io.Writer, typ byte, id uint64, payload []byte) error {
	if len(payload)+frameHeader > maxFrame {
		return fmt.Errorf("cluster: frame payload %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 4+frameHeader+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(frameHeader+len(payload)))
	buf[4] = typ
	binary.BigEndian.PutUint64(buf[5:], id)
	copy(buf[4+frameHeader:], payload)
	_, err := w.Write(buf)
	return err
}

// frameChunk is the first read of a frame body. readFrame then at most
// doubles the body per read, so its memory follows the bytes that arrived,
// not the length prefix.
const frameChunk = 64 << 10

// readFrame reads one frame. The returned payload is freshly allocated
// and safe to retain.
func readFrame(r *bufio.Reader) (typ byte, id uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:]))
	if size < frameHeader || size > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: bad frame length %d", size)
	}
	body := make([]byte, 0, min(size, frameChunk))
	for len(body) < size {
		chunk := min(size-len(body), max(len(body), frameChunk))
		body = slices.Grow(body, chunk)
		if _, err = io.ReadFull(r, body[len(body):len(body)+chunk]); err != nil {
			return 0, 0, nil, err
		}
		body = body[:len(body)+chunk]
	}
	return body[0], binary.BigEndian.Uint64(body[1:9]), body[frameHeader:], nil
}

// Payload builders and parsers. Encodings are hand-rolled: uvarints for
// counts and small ints, fixed little-endian for arrays (the same layout
// the in-memory CSR and bitset slabs use, so encode/decode are straight
// copies).

type wireReader struct{ b []byte }

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errors.New("cluster: truncated uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) intv() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<40 {
		return 0, fmt.Errorf("cluster: unreasonable count %d", v)
	}
	return int(v), nil
}

// count reads an element count and bounds it by the bytes left, given the
// fewest bytes one element occupies, so a decoder never allocates for
// elements the payload cannot hold.
func (r *wireReader) count(minBytes int) (int, error) {
	n, err := r.intv()
	if err != nil {
		return 0, err
	}
	if n > len(r.b)/minBytes {
		return 0, fmt.Errorf("cluster: %d elements cannot fit the %d payload bytes left", n, len(r.b))
	}
	return n, nil
}

func (r *wireReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, errors.New("cluster: truncated payload")
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *wireReader) str() (string, error) {
	n, err := r.intv()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	return string(b), err
}

func (r *wireReader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("cluster: %d trailing payload bytes", len(r.b))
	}
	return nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// loadMsg is the graph-slice load request: the shard's identity and
// peers, the partition parameters (every shard derives the identical
// partition from n and the shard count), and the shard's local CSR slice.
// Local offsets are rebased to the slice (localOff[0] == 0); adjacency
// keeps global vertex ids, since neighbors routinely live on other shards.
type loadMsg struct {
	name      string
	shardID   int
	numShards int
	n         int // global vertex count
	workers   int // per-shard traversal parallelism
	peers     []string
	offsets   []uint32 // rlen+1, rebased
	adjacency []uint32 // global ids
}

func encodeLoad(m *loadMsg) []byte {
	sz := len(m.name) + 64 + len(m.offsets)*4 + len(m.adjacency)*4
	for _, p := range m.peers {
		sz += len(p) + 4
	}
	dst := make([]byte, 0, sz)
	dst = appendStr(dst, m.name)
	dst = binary.AppendUvarint(dst, uint64(m.shardID))
	dst = binary.AppendUvarint(dst, uint64(m.numShards))
	dst = binary.AppendUvarint(dst, uint64(m.n))
	dst = binary.AppendUvarint(dst, uint64(m.workers))
	dst = binary.AppendUvarint(dst, uint64(len(m.peers)))
	for _, p := range m.peers {
		dst = appendStr(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.offsets)))
	for _, o := range m.offsets {
		dst = binary.LittleEndian.AppendUint32(dst, o)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.adjacency)))
	for _, a := range m.adjacency {
		dst = binary.LittleEndian.AppendUint32(dst, a)
	}
	return dst
}

func decodeLoad(payload []byte) (*loadMsg, error) {
	r := &wireReader{b: payload}
	m := &loadMsg{}
	var err error
	if m.name, err = r.str(); err != nil {
		return nil, err
	}
	if m.shardID, err = r.intv(); err != nil {
		return nil, err
	}
	if m.numShards, err = r.intv(); err != nil {
		return nil, err
	}
	if m.n, err = r.intv(); err != nil {
		return nil, err
	}
	if m.workers, err = r.intv(); err != nil {
		return nil, err
	}
	np, err := r.count(1) // a peer address is at least its length byte
	if err != nil {
		return nil, err
	}
	if np != m.numShards {
		return nil, fmt.Errorf("cluster: load lists %d peers for %d shards", np, m.numShards)
	}
	m.peers = make([]string, np)
	for i := range m.peers {
		if m.peers[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	no, err := r.intv()
	if err != nil {
		return nil, err
	}
	ob, err := r.bytes(no * 4)
	if err != nil {
		return nil, err
	}
	m.offsets = make([]uint32, no)
	for i := range m.offsets {
		m.offsets[i] = binary.LittleEndian.Uint32(ob[i*4:])
	}
	na, err := r.intv()
	if err != nil {
		return nil, err
	}
	ab, err := r.bytes(na * 4)
	if err != nil {
		return nil, err
	}
	m.adjacency = make([]uint32, na)
	for i := range m.adjacency {
		m.adjacency[i] = binary.LittleEndian.Uint32(ab[i*4:])
	}
	return m, r.done()
}

// startMsg begins a query: the cluster-unique query id (RPC request ids
// are per-call, so the query id rides in the payload of every
// query-scoped message), the target graph, and the batch's global source
// vertices in slot order (slot i drives bit i of the k-wide state).
//
// Two optional trailing fields follow. A traced coordinator appends its
// nonzero flight-record trace id, and the shard answers every msgStep
// with a piggybacked stepTrace section. A batch whose caller reads no
// levels appends the trace id (0 when untraced) and then startNoLevels,
// and the shards record no level rows for it. An untraced batch that
// reads its levels appends nothing, so its encoding is byte-identical to
// the pre-tracing wire format.
type startMsg struct {
	qid     uint64
	name    string
	sources []int
	traceID uint64
	record  bool // the shards record level rows for msgResult
}

// startNoLevels is the trailing msgStart flag of a batch that reads no
// levels.
const startNoLevels = 1

func encodeStart(qid uint64, name string, sources []int, traceID uint64, record bool) []byte {
	dst := make([]byte, 0, len(name)+24+len(sources)*4)
	dst = binary.AppendUvarint(dst, qid)
	dst = appendStr(dst, name)
	dst = binary.AppendUvarint(dst, uint64(len(sources)))
	for _, s := range sources {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	if traceID != 0 || !record {
		dst = binary.AppendUvarint(dst, traceID)
	}
	if !record {
		dst = binary.AppendUvarint(dst, startNoLevels)
	}
	return dst
}

func decodeStart(payload []byte) (*startMsg, error) {
	r := &wireReader{b: payload}
	m := &startMsg{record: true}
	var err error
	if m.qid, err = r.uvarint(); err != nil {
		return nil, err
	}
	if m.name, err = r.str(); err != nil {
		return nil, err
	}
	k, err := r.count(1) // a source is at least one uvarint byte
	if err != nil {
		return nil, err
	}
	m.sources = make([]int, k)
	for i := range m.sources {
		if m.sources[i], err = r.intv(); err != nil {
			return nil, err
		}
	}
	if len(r.b) > 0 {
		if m.traceID, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	if len(r.b) > 0 {
		flag, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if flag != startNoLevels {
			return nil, fmt.Errorf("cluster: unknown msgStart flag %d", flag)
		}
		m.record = false
	}
	return m, r.done()
}

// encodeQueryRef builds the payload of the query-scoped requests that
// carry only the query id (msgResult, msgEnd) or the id plus the level
// (msgStep).
func encodeQueryRef(qid uint64, extra ...uint64) []byte {
	dst := binary.AppendUvarint(make([]byte, 0, 16), qid)
	for _, v := range extra {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// stepDone is the per-shard reply to msgStep: how many new (vertex,
// source) states entered the shard's next frontier, and the exchange
// volume the shard sent this level (encoded vs raw bitset bytes).
//
// trace is the optional piggybacked distributed-tracing section: when the
// query's msgStart carried a trace id, the shard appends its sub-phase
// wall times so the coordinator can reconstruct one clock-aligned
// per-shard timeline. Untraced replies append nothing — the encoding is
// byte-identical to the pre-tracing format.
type stepDone struct {
	nextStates int64
	sentBytes  int64
	rawBytes   int64
	trace      *stepTrace
}

// stepTrace carries one step's sub-phase wall times, measured on the
// shard's own monotonic clock (nanoseconds). Only durations cross the
// wire: shard and coordinator clocks are not comparable, so absolute
// placement happens coordinator-side from the RPC request/reply
// timestamps it already owns.
type stepTrace struct {
	scanNanos   uint64 // phase 1: the engine's scatter + inbox apply
	encodeNanos uint64 // phase 2a: per-peer delta codec encode
	sendNanos   uint64 // phase 2b: concurrent peer-link sends (wall)
	waitNanos   uint64 // phase 3: barrier wait for inbound peer deltas
	decodeNanos uint64 // phase 3: inbound delta decode + OR into next
	applyNanos  uint64 // phase 4: the engine's resolve (next &^ seen, levels)
}

func encodeStepDone(d stepDone) []byte {
	dst := make([]byte, 0, 9*binary.MaxVarintLen64)
	dst = binary.AppendUvarint(dst, uint64(d.nextStates))
	dst = binary.AppendUvarint(dst, uint64(d.sentBytes))
	dst = binary.AppendUvarint(dst, uint64(d.rawBytes))
	if d.trace != nil {
		dst = binary.AppendUvarint(dst, d.trace.scanNanos)
		dst = binary.AppendUvarint(dst, d.trace.encodeNanos)
		dst = binary.AppendUvarint(dst, d.trace.sendNanos)
		dst = binary.AppendUvarint(dst, d.trace.waitNanos)
		dst = binary.AppendUvarint(dst, d.trace.decodeNanos)
		dst = binary.AppendUvarint(dst, d.trace.applyNanos)
	}
	return dst
}

func decodeStepDone(payload []byte) (stepDone, error) {
	r := &wireReader{b: payload}
	var d stepDone
	v, err := r.uvarint()
	if err != nil {
		return d, err
	}
	d.nextStates = int64(v)
	if v, err = r.uvarint(); err != nil {
		return d, err
	}
	d.sentBytes = int64(v)
	if v, err = r.uvarint(); err != nil {
		return d, err
	}
	d.rawBytes = int64(v)
	if len(r.b) > 0 {
		tr := &stepTrace{}
		for _, f := range []*uint64{&tr.scanNanos, &tr.encodeNanos, &tr.sendNanos,
			&tr.waitNanos, &tr.decodeNanos, &tr.applyNanos} {
			if *f, err = r.uvarint(); err != nil {
				return d, err
			}
		}
		d.trace = tr
	}
	return d, r.done()
}

// deltaMsg is one shard→shard frontier delta (the frame's request id
// carries the query id).
type deltaMsg struct {
	fromShard int
	level     int
	delta     []byte // codec payload
}

func encodeDelta32(m *deltaMsg) []byte {
	dst := make([]byte, 0, 2*binary.MaxVarintLen64+len(m.delta))
	dst = binary.AppendUvarint(dst, uint64(m.fromShard))
	dst = binary.AppendUvarint(dst, uint64(m.level))
	return append(dst, m.delta...)
}

func decodeDelta32(payload []byte) (*deltaMsg, error) {
	r := &wireReader{b: payload}
	m := &deltaMsg{}
	var err error
	if m.fromShard, err = r.intv(); err != nil {
		return nil, err
	}
	if m.level, err = r.intv(); err != nil {
		return nil, err
	}
	m.delta = r.b
	return m, nil
}

// resultMsg is the per-shard reply to msgResult: the query's k level rows
// over the shard's vertices [lo,hi), row-major int32 little-endian
// (NoLevel for unreached), prefixed by k and rlen = hi-lo for validation.
func encodeResultRows(rows [][]int32, lo, hi int) []byte {
	dst := make([]byte, 0, 16+len(rows)*(hi-lo)*4)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	for _, row := range rows {
		for _, lv := range row[lo:hi] {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(lv))
		}
	}
	return dst
}

func decodeResultRows(payload []byte) (k, rlen int, rows []byte, err error) {
	r := &wireReader{b: payload}
	if k, err = r.intv(); err != nil {
		return 0, 0, nil, err
	}
	if rlen, err = r.intv(); err != nil {
		return 0, 0, nil, err
	}
	if rows, err = r.bytes(k * rlen * 4); err != nil {
		return 0, 0, nil, err
	}
	return k, rlen, rows, r.done()
}
