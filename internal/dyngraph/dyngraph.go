// Package dyngraph turns the library's immutable CSR graphs into
// dynamically growing ones without giving up the array-based traversal
// kernels. Edges stream in through ApplyEdges; each accepted batch bumps a
// monotonically increasing version and publishes a new copy-on-write
// Overlay layered over the current CSR generation. Queries pin a version
// with Acquire/AcquireVersion and traverse a consistent (CSR + overlay)
// view — MVCC snapshots over a compressed-sparse-row base.
//
// A compactor (explicit Compact calls, or a background goroutine when
// Config.AutoCompact is set) folds the accumulated delta into a fresh CSR
// generation with graph.MergeOverlay, reading the horizon version through a
// pin like any query. Versions at or beyond the compaction horizon are
// re-published on the new generation with only the log suffix as overlay;
// older pinned versions keep traversing the old generation until their
// pins drain, at which point the retired generation's overlay arena is
// poisoned (see PoisonVertex) and the CSR is dropped.
//
// Concurrency contract: one mutex guards all mutation and pin accounting.
// Published views, overlays and CSR generations are immutable, so
// traversals run entirely lock-free between Acquire and Release.
package dyngraph

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	msbfs "repro"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Sentinel errors. The server layer maps them onto HTTP statuses:
// ErrCompactionLag → 409, ErrVersionGone → 410, ErrVersionFuture → 400,
// ErrClosed → 503, ErrArcLimit → 507.
var (
	// ErrCompactionLag is backpressure: the uncompacted delta has hit
	// Config.MaxDelta and ingest must wait for the compactor to catch up.
	ErrCompactionLag = errors.New("dyngraph: delta overlay full, compaction lagging")
	// ErrVersionGone reports a version that existed but has been garbage
	// collected past the retention window.
	ErrVersionGone = errors.New("dyngraph: version no longer retained")
	// ErrVersionFuture reports a version that has never been published.
	ErrVersionFuture = errors.New("dyngraph: version not yet published")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("dyngraph: closed")
	// ErrBadEdge reports an edge endpoint outside [0, NumVertices).
	ErrBadEdge = errors.New("dyngraph: edge endpoint out of range")
	// ErrArcLimit reports a batch that would grow the graph past the arcs
	// 32-bit CSR offsets address (graph.CheckArcs), so no compaction could
	// fold it in. Unlike ErrCompactionLag it is permanent; the error also
	// matches graph.ErrTooManyArcs.
	ErrArcLimit = errors.New("dyngraph: batch would pass the CSR arc limit")
)

// checkArcs is graph.CheckArcs, the bound every compacted generation must
// meet; a test lowers it to reach the refusal without a 2^32-arc graph.
var checkArcs = graph.CheckArcs

// mergeOverlay is graph.MergeOverlay, a compaction's one CSR build; a test
// holds it to land ingest while a merge runs.
var mergeOverlay = graph.MergeOverlay

// RetainedVersions is how many recent versions stay pinnable. Older
// versions are evicted as new ones are published; acquiring an evicted
// version returns ErrVersionGone.
const RetainedVersions = 8

// Config tunes a DynGraph. The zero value is usable.
type Config struct {
	// MaxDelta caps the uncompacted overlay, in stored arcs (2 per
	// undirected edge). ApplyEdges fails with ErrCompactionLag beyond it.
	// <=0: 1<<20 arcs (~4 MiB of delta).
	MaxDelta int64
	// AutoCompact starts a background goroutine that compacts whenever the
	// delta has reached half of MaxDelta, or an ingest was refused with
	// ErrCompactionLag since the last compaction (a batch larger than the
	// space left). Without it, call Compact explicitly.
	AutoCompact bool
	// Tracer, when non-nil, records ingest and compaction phase spans in
	// the flight recorder alongside the traversal spans.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxDelta <= 0 {
		c.MaxDelta = 1 << 20
	}
	return c
}

// logEdge is one accepted undirected edge with the version that added it.
// The log is append-only and version-sorted by construction.
type logEdge struct {
	u, v graph.VertexID // canonical u < v
	ver  uint64
}

// generation is one immutable CSR base plus the arena all overlay lists
// layered over it live in. refs counts the views bound to the generation
// (retained or pinned); when it drains to zero the arena is poisoned.
type generation struct {
	base *graph.Graph
	wrap *msbfs.Graph // zero-copy public wrapper around base
	ar   *arena
	refs int // guarded by DynGraph.mu
}

// view is one published version: a generation plus the overlay holding
// every edge newer than the generation's base. Immutable after publish;
// pins is the only mutable field and is guarded by DynGraph.mu.
type view struct {
	ver      uint64
	gen      *generation
	ov       *graph.Overlay // never nil; may be empty
	pins     int
	retained bool // still in the retention window
}

// DynGraph is a mutable graph: an immutable CSR generation, a version log
// of streamed edges, and MVCC snapshot handles over both. Safe for
// concurrent use.
type DynGraph struct {
	cfg Config
	n   int

	mu         sync.Mutex
	cur        *view
	views      map[uint64]*view
	order      []uint64  // retained versions, ascending
	log        []logEdge // edges newer than cur.gen.base, i.e. not yet compacted
	compacting bool
	lagged     bool // an ingest was refused with ErrCompactionLag; a publishing compaction clears it
	closed     bool

	kick chan struct{} // wakes the background compactor
	done chan struct{}

	ingestBatches  atomic.Int64
	ingestEdges    atomic.Int64
	ingestRejected atomic.Int64
	compactions    atomic.Int64
	retiredGens    atomic.Int64
	pinnedNow      atomic.Int64

	// genSeq numbers CSR generations (the seed CSR is generation 1); each
	// compaction's span is stamped with the generation it produced.
	genSeq atomic.Int64
	// compactSeconds distributes full compaction wall times (build +
	// republish, in ns), the /metrics bfsd_compaction_seconds histogram.
	compactSeconds metrics.Histogram
}

// New wraps an immutable graph as version 1 of a dynamic one. The graph's
// CSR arrays are shared, not copied; the caller must not mutate g.
func New(g *msbfs.Graph, cfg Config) *DynGraph {
	off, adj := g.CSR()
	gen := &generation{
		base: &graph.Graph{Offsets: off, Adjacency: adj},
		wrap: g,
		ar:   &arena{},
		refs: 1,
	}
	v1 := &view{ver: 1, gen: gen, ov: graph.NewOverlay(g.NumVertices()), retained: true}
	d := &DynGraph{
		cfg:   cfg.withDefaults(),
		n:     g.NumVertices(),
		cur:   v1,
		views: map[uint64]*view{1: v1},
		order: []uint64{1},
	}
	d.genSeq.Store(1)
	if d.cfg.AutoCompact {
		d.kick = make(chan struct{}, 1)
		d.done = make(chan struct{})
		//bfs:detached compactor goroutine; joined via the done channel in Close
		go d.compactLoop()
	}
	return d
}

// NumVertices returns the fixed vertex count (ingest adds edges, not
// vertices).
func (d *DynGraph) NumVertices() int { return d.n }

// Version returns the currently published version. Versions start at 1.
func (d *DynGraph) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cur.ver
}

// ApplyResult reports what one ApplyEdges batch did.
type ApplyResult struct {
	// Version is the published version after the batch: a fresh version if
	// any edge was accepted, otherwise the unchanged current version.
	Version uint64
	// Accepted is the number of new undirected edges the batch added.
	Accepted int
	// Duplicates counts edges already present (in the base CSR, the
	// overlay, or earlier in the same batch). Dropping them is not an
	// error — ingest is idempotent.
	Duplicates int
	// SelfLoops counts dropped u==u entries.
	SelfLoops int
	// DeltaArcs is the overlay size (stored arcs) after the batch.
	DeltaArcs int64
}

// ApplyEdges ingests a batch of undirected edges atomically: either every
// new edge in the batch becomes visible at the returned Version, or (on
// error) none do. Self-loops and duplicates are dropped, endpoints are
// validated against the fixed vertex count, a batch that would take the
// graph past the CSR arc limit is refused with ErrArcLimit, and a full
// delta overlay rejects the batch with ErrCompactionLag.
func (d *DynGraph) ApplyEdges(edges []graph.Edge) (ApplyResult, error) {
	sp := d.cfg.Tracer.StartSpan("dyngraph-ingest", fmt.Sprintf("%d edges", len(edges)))
	defer sp.End()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ApplyResult{}, ErrClosed
	}
	res := ApplyResult{Version: d.cur.ver, DeltaArcs: d.cur.ov.Arcs()}

	// Validate before mutating anything: the batch is all-or-nothing.
	// (Callers that validate in front of ApplyEdges — e.g. an external-id
	// range check before permutation mapping — report their rejects via
	// RecordRejected so IngestRejected stays a total over every path.)
	for i, e := range edges {
		if int(e.U) >= d.n || int(e.V) >= d.n {
			d.ingestRejected.Add(1)
			return ApplyResult{}, fmt.Errorf("%w: edge[%d] = (%d, %d), n = %d",
				ErrBadEdge, i, e.U, e.V, d.n)
		}
	}

	// Canonicalize and dedup against the base CSR, the live overlay, and
	// the batch itself.
	inBatch := make(map[[2]graph.VertexID]bool, len(edges))
	accepted := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			res.SelfLoops++
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]graph.VertexID{u, v}
		if inBatch[key] || d.cur.gen.base.HasEdge(int(u), int(v)) || d.cur.ov.HasArc(int(u), v) {
			res.Duplicates++
			continue
		}
		inBatch[key] = true
		accepted = append(accepted, graph.Edge{U: u, V: v})
	}
	d.ingestBatches.Add(1)
	if len(accepted) == 0 {
		return res, nil
	}

	base, delta, add := len(d.cur.gen.base.Adjacency), d.cur.ov.Arcs(), 2*len(accepted)
	if err := checkArcs(uint64(base) + uint64(delta) + uint64(add)); err != nil {
		d.ingestRejected.Add(1)
		return ApplyResult{}, fmt.Errorf("%w: %d base arcs + %d delta + %d new: %w", ErrArcLimit, base, delta, add, err)
	}
	if delta+int64(add) > d.cfg.MaxDelta {
		d.ingestRejected.Add(1)
		d.lagged = true
		d.kickCompactorLocked()
		return ApplyResult{}, fmt.Errorf("%w: %d arcs + %d new > max %d",
			ErrCompactionLag, delta, add, d.cfg.MaxDelta)
	}

	ver := d.cur.ver + 1
	for _, e := range accepted {
		d.log = append(d.log, logEdge{u: e.U, v: e.V, ver: ver})
	}
	nv := &view{
		ver:      ver,
		gen:      d.cur.gen,
		ov:       d.cur.ov.WithEdges(accepted, d.cur.gen.ar.alloc),
		retained: true,
	}
	nv.gen.refs++
	d.views[ver] = nv
	d.order = append(d.order, ver)
	d.cur = nv
	d.evictLocked()

	d.ingestEdges.Add(int64(len(accepted)))
	res.Version = ver
	res.Accepted = len(accepted)
	res.DeltaArcs = nv.ov.Arcs()
	if d.cfg.AutoCompact && nv.ov.Arcs() >= d.cfg.MaxDelta/2 {
		d.kickCompactorLocked()
	}
	return res, nil
}

// evictLocked trims the retention window from the oldest end. The current
// version is never evicted.
func (d *DynGraph) evictLocked() {
	for len(d.order) > RetainedVersions {
		ver := d.order[0]
		if ver == d.cur.ver {
			return
		}
		d.order = d.order[1:]
		v := d.views[ver]
		delete(d.views, ver)
		v.retained = false
		if v.pins == 0 {
			d.dropViewRefLocked(v)
		}
	}
}

// dropViewRefLocked releases a view's hold on its generation, retiring the
// generation when it was the last one. Callers must have established that
// the view is neither retained nor pinned.
func (d *DynGraph) dropViewRefLocked(v *view) {
	v.gen.refs--
	if v.gen.refs == 0 {
		v.gen.ar.scrub()
		v.gen.base = nil
		v.gen.wrap = nil
		d.retiredGens.Add(1)
	}
}

// Acquire pins the current version and returns its snapshot.
func (d *DynGraph) Acquire() (*Snapshot, error) {
	return d.AcquireVersion(0) //bfs:arena-held caller unpins via Snapshot.Release
}

// AcquireVersion pins a specific published version (0 means current). The
// returned snapshot traverses exactly the edges visible at that version
// until Release, regardless of concurrent ingest and compaction.
func (d *DynGraph) AcquireVersion(ver uint64) (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if ver == 0 {
		ver = d.cur.ver
	}
	v, ok := d.views[ver]
	if !ok {
		if ver > d.cur.ver {
			return nil, fmt.Errorf("%w: version %d, current %d", ErrVersionFuture, ver, d.cur.ver)
		}
		return nil, fmt.Errorf("%w: version %d, retained [%d, %d]",
			ErrVersionGone, ver, d.order[0], d.cur.ver)
	}
	return d.pinLocked(v), nil
}

// Pin is AcquireVersion as a msbfs.Pinned, the shape the query server
// serves every graph through. On error there is no pin: the result is an
// untyped nil, not a nil *Snapshot inside the interface.
func (d *DynGraph) Pin(ver uint64) (msbfs.Pinned, error) {
	snap, err := d.AcquireVersion(ver) //bfs:arena-held handed to Pin's caller, which unpins via Pinned.Release
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// pinLocked pins a published view: until the snapshot's Release the view's
// generation cannot retire, whatever eviction and compaction do meanwhile.
func (d *DynGraph) pinLocked(v *view) *Snapshot {
	v.pins++
	d.pinnedNow.Add(1)
	return &Snapshot{d: d, v: v}
}

// Snapshot is a pinned, immutable view of the graph at one version. It
// must be Released exactly once; traversals through it are lock-free.
type Snapshot struct {
	d        *DynGraph
	v        *view
	released atomic.Bool
}

// Version returns the snapshot's pinned version.
func (s *Snapshot) Version() uint64 { return s.v.ver }

// Graph returns the snapshot's CSR base. Combine with Overlay (via
// Options.Overlay) to traverse the full view.
func (s *Snapshot) Graph() *msbfs.Graph { return s.v.gen.wrap }

// Overlay returns the delta to layer over Graph, or nil when the snapshot
// carries no uncompacted edges (the static fast path).
func (s *Snapshot) Overlay() *msbfs.Overlay {
	if s.v.ov.Arcs() == 0 {
		return nil
	}
	return s.v.ov
}

// RunBatch traverses the snapshot view with the multi-source visitor
// kernel: with Version and Release it makes a Snapshot the msbfs.Pinned
// that Pin hands out.
func (s *Snapshot) RunBatch(_ context.Context, sources []int, opt msbfs.Options,
	visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error) {
	opt.Overlay = s.Overlay()
	return s.v.gen.wrap.MultiBFSVisitor(sources, opt, visit), nil
}

// Release unpins the snapshot. Idempotent; after the last release of a
// retired generation its overlay memory is poisoned, so neighbor lists
// obtained through this snapshot must not be used past this call.
func (s *Snapshot) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	d := s.d
	d.mu.Lock()
	defer d.mu.Unlock()
	s.v.pins--
	d.pinnedNow.Add(-1)
	if s.v.pins == 0 && !s.v.retained {
		d.dropViewRefLocked(s.v)
	}
}

// kickCompactorLocked nudges the background compactor, if any.
func (d *DynGraph) kickCompactorLocked() {
	if d.kick == nil {
		return
	}
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// compactLoop merges only when a merge is due as it wakes: a kick buffered
// while a merge ran would otherwise rewrite the whole CSR for the few
// batches ingested meanwhile.
func (d *DynGraph) compactLoop() {
	defer close(d.done)
	for range d.kick {
		d.compact(true) //nolint:errcheck // closed/empty are expected terminal states
	}
}

// Compact folds every edge up to the current version into a fresh CSR
// generation, then re-publishes retained versions at or past that horizon
// on the new generation. It reads the horizon version the way a query does,
// through a pin, so neither eviction nor a retiring generation can pull the
// arrays out from under the merge (graph.MergeOverlay: one pass, the new
// CSR is the only thing it allocates). Versions behind the horizon stay
// pinned to the old generation until released; the old generation is
// retired (and its arena poisoned) once no view references it. Returns
// false when there was nothing to compact or a compaction was already
// running.
func (d *DynGraph) Compact() (bool, error) { return d.compact(false) }

// compact is Compact; with dueOnly it also returns false while the delta
// is below half of MaxDelta and no ingest was refused for lag.
func (d *DynGraph) compact(dueOnly bool) (bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, ErrClosed
	}
	due := d.lagged || d.cur.ov.Arcs() >= d.cfg.MaxDelta/2
	if d.compacting || len(d.log) == 0 || (dueOnly && !due) {
		d.mu.Unlock()
		return false, nil
	}
	d.compacting = true
	snap := d.pinLocked(d.cur)
	d.mu.Unlock()
	compactStart := time.Now()

	// Build the new CSR outside the lock: ingest continues concurrently,
	// appending log entries with versions > horizon.
	horizon := snap.Version()
	what := fmt.Sprintf("v%d, %d delta edges", horizon, snap.v.ov.Arcs()/2)
	sp := d.cfg.Tracer.StartSpan("dyngraph-compact", what)
	base := mergeOverlay(snap.v.gen.base, snap.v.ov)
	snap.Release()
	newGen := &generation{
		base: base,
		wrap: msbfs.NewGraphFromAdjacency(base.Offsets, base.Adjacency),
		ar:   &arena{},
	}
	sp.Annotate(fmt.Sprintf("%s -> generation %d", what, d.genSeq.Add(1)))
	sp.End()

	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-publish every retained version >= horizon on the new generation,
	// oldest first: each overlay is its predecessor's plus the log entries
	// up to its own version (the log is version-sorted, so one cursor).
	// Published view objects are never mutated (pinned readers hold them);
	// replacements are fresh objects.
	cut := sort.Search(len(d.log), func(i int) bool { return d.log[i].ver > horizon })
	next, ov := cut, graph.NewOverlay(d.n)
	var added []graph.Edge
	for _, ver := range d.order {
		if ver < horizon {
			continue
		}
		added = added[:0]
		for ; next < len(d.log) && d.log[next].ver <= ver; next++ {
			added = append(added, graph.Edge{U: d.log[next].u, V: d.log[next].v})
		}
		ov = ov.WithEdges(added, newGen.ar.alloc)
		old := d.views[ver]
		d.views[ver] = &view{ver: ver, gen: newGen, ov: ov, retained: true}
		newGen.refs++
		old.retained = false
		if old.pins == 0 {
			d.dropViewRefLocked(old)
		}
	}
	d.cur = d.views[d.cur.ver]
	// Keep only the uncompacted suffix of the log.
	d.log = append([]logEdge(nil), d.log[cut:]...)
	d.compacting = false
	d.lagged = false
	d.compactions.Add(1)
	d.compactSeconds.RecordDuration(time.Since(compactStart))
	return true, nil
}

// CompactSeconds exposes the compaction wall-time histogram (ns values)
// for the server's bfsd_compaction_seconds metric.
func (d *DynGraph) CompactSeconds() *metrics.Histogram { return &d.compactSeconds }

// Close stops the background compactor and fails all future operations
// with ErrClosed. Outstanding snapshots stay valid until Released.
func (d *DynGraph) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	if d.kick != nil {
		close(d.kick)
		<-d.done
	}
}

// Stats is a point-in-time census of the dynamic graph, consumed by the
// server's /metrics endpoint.
type Stats struct {
	Version        uint64 // current published version
	BaseEdges      int64  // undirected edges in the current CSR generation
	DeltaArcs      int64  // stored arcs in the current overlay (2 per edge)
	DeltaEdges     int64  // uncompacted log entries
	RetainedViews  int    // versions inside the retention window
	PinnedNow      int64  // currently pinned snapshots
	IngestBatches  int64  // ApplyEdges calls that passed validation
	IngestEdges    int64  // edges accepted over the graph's lifetime
	IngestRejected int64  // batches refused (bad edge, arc limit or compaction lag)
	Compactions    int64  // completed compactions
	RetiredGens    int64  // generations scrubbed and dropped
}

// RecordRejected counts an ingest batch refused by a validation layer in
// front of ApplyEdges (the server range-checks external ids before mapping
// them through the relabel permutation), so IngestRejected covers every
// reject path, not only the ones ApplyEdges sees.
func (d *DynGraph) RecordRejected() { d.ingestRejected.Add(1) }

// Stats returns current counters. Acquiring the mutex here also gives
// tests a happens-before edge with compaction's arena scrub.
func (d *DynGraph) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Version:        d.cur.ver,
		BaseEdges:      d.cur.gen.base.NumEdges(),
		DeltaArcs:      d.cur.ov.Arcs(),
		DeltaEdges:     int64(len(d.log)),
		RetainedViews:  len(d.order),
		PinnedNow:      d.pinnedNow.Load(),
		IngestBatches:  d.ingestBatches.Load(),
		IngestEdges:    d.ingestEdges.Load(),
		IngestRejected: d.ingestRejected.Load(),
		Compactions:    d.compactions.Load(),
		RetiredGens:    d.retiredGens.Load(),
	}
}
