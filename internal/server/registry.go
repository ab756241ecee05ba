package server

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
	"repro/internal/obs"
)

// Entry is one served graph: the striped-relabeled graph, the permutation
// mapping external (original) vertex ids to internal (relabeled) ids, the
// Graph500 edge counter for GTEPS accounting, and the graph's coalescer.
type Entry struct {
	Name string
	Spec string
	// G is the relabeled CSR. Static graph: the graph every batch
	// traverses. Dynamic graph: the current version's CSR generation as of
	// the last accepted ingest; ApplyEdges replaces it, so read it only
	// while no ingest runs (queries run on Dyn snapshots). A compaction
	// that publishes after that ingest is not seen, so with background
	// compaction which generation G holds, and how many of the ingested
	// arcs, depends on timing. Cluster graph: the local copy; the shards
	// hold the traversed slices.
	G *msbfs.Graph
	// Perm maps external id -> internal id (nil when the graph was not
	// relabeled). Queries arrive in external ids; Submit translates.
	Perm []uint32
	Met  *Metrics
	Coal *Coalescer
	// ClusterMet is the coordinator's exchange/RPC metrics when this
	// graph's batches run on a shard cluster instead of the local engine;
	// nil for locally-served graphs.
	ClusterMet *cluster.Metrics
	// Dyn is the MVCC ingest layer when the graph was registered with
	// AddDynamic; nil for static graphs.
	Dyn *dyngraph.DynGraph

	// ingest serializes ApplyEdges, which re-points G after each batch.
	ingest sync.Mutex
	// rows is the graph's metric table, built once at registration.
	rows metricTable
}

// Submit validates q against the graph (error, not panic, on bad ids),
// translates external vertex ids to the relabeled space, and hands the
// query to the graph's coalescer. Perm is a bijection on [0, n), so the
// ids are checked once, before the translation.
func (e *Entry) Submit(ctx context.Context, q Query) (Answer, error) {
	if err := e.Coal.validate(q); err != nil {
		return Answer{}, err
	}
	if e.Perm != nil {
		q.Source = int(e.Perm[q.Source])
		if len(q.Targets) > 0 {
			mapped := make([]int, len(q.Targets))
			for i, t := range q.Targets {
				mapped[i] = int(e.Perm[t])
			}
			q.Targets = mapped
		}
	}
	return e.Coal.enqueue(ctx, q)
}

// ApplyEdges streams a batch of edges (external vertex ids) into a dynamic
// graph. Endpoints are range-checked here — before the permutation lookup
// — then translated to the relabeled space the traversals run in, exactly
// as query sources are. An accepted batch re-points G at the new version's
// generation, so the entry never keeps a retired one (the seed) alive.
// Returns ErrBadRequest for static graphs.
func (e *Entry) ApplyEdges(edges []msbfs.Edge) (dyngraph.ApplyResult, error) {
	if e.Dyn == nil {
		return dyngraph.ApplyResult{}, fmt.Errorf("%w: graph %q is not dynamic", ErrBadRequest, e.Name)
	}
	n := e.Dyn.NumVertices()
	for i, ed := range edges {
		if int(ed.U) >= n || int(ed.V) >= n {
			e.Dyn.RecordRejected()
			return dyngraph.ApplyResult{}, fmt.Errorf("%w: edge[%d] = (%d, %d) out of range [0, %d)",
				ErrBadRequest, i, ed.U, ed.V, n)
		}
	}
	if e.Perm != nil {
		mapped := make([]msbfs.Edge, len(edges))
		for i, ed := range edges {
			mapped[i] = msbfs.Edge{U: e.Perm[ed.U], V: e.Perm[ed.V]}
		}
		edges = mapped
	}
	e.ingest.Lock()
	defer e.ingest.Unlock()
	res, err := e.Dyn.ApplyEdges(edges)
	if err != nil || res.Accepted == 0 {
		return res, err
	}
	snap, err := e.Dyn.Acquire()
	if err != nil {
		return res, nil // closed since the batch: G keeps the last generation
	}
	// The CSR is immutable and owns no arena memory: it stays valid unpinned.
	g := snap.Graph()
	snap.Release()
	e.G = g
	return res, nil
}

// Registry holds the named graphs a server instance serves, plus the
// daemon's one execution engine: every registered graph's coalescer runs
// its batch flushes on the same pooled workers and recycled state arenas.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*Entry
	eng    *msbfs.Engine
	// engRows is the engine's metric table.
	engRows metricTable

	// The daemon-wide observability surface: every coalescer shares the
	// one flight recorder (so /debug/flightrecorder sees all graphs) and
	// the one span tracer (graph builds, relabels, batch flushes).
	rec    *FlightRecorder
	tracer *obs.Tracer
	logger *slog.Logger
	// stats is the time-series store behind /debug/stats and /debug/dash;
	// it stays empty until StartStatsSampler feeds it.
	stats *obs.TimeSeries
}

// NewRegistry returns an empty registry with a fresh per-daemon engine,
// flight recorder and span tracer.
func NewRegistry() *Registry {
	eng := msbfs.NewEngine(msbfs.Options{})
	return &Registry{
		graphs:  make(map[string]*Entry),
		eng:     eng,
		engRows: engineTable(eng),
		rec:     NewFlightRecorder(0),
		tracer:  obs.NewTracer(),
		stats:   obs.NewTimeSeries(),
	}
}

// Engine returns the registry's shared execution engine.
func (r *Registry) Engine() *msbfs.Engine { return r.eng }

// FlightRecorder returns the shared per-request flight recorder.
func (r *Registry) FlightRecorder() *FlightRecorder { return r.rec }

// Tracer returns the shared span tracer.
func (r *Registry) Tracer() *obs.Tracer { return r.tracer }

// SetLogger installs the structured logger new coalescers emit slow-query
// warnings to. Call before registering graphs; nil disables the warnings.
func (r *Registry) SetLogger(l *slog.Logger) { r.logger = l }

// SetSlowQuery rebuilds the flight recorder with the given slow-query
// threshold (<=0 keeps the default). Call before registering graphs so
// every coalescer sees the new recorder.
func (r *Registry) SetSlowQuery(d time.Duration) {
	r.rec = NewFlightRecorder(d)
}

// BuildGraph materializes a graph from spec under a "graph-build" span —
// the step cmd/bfsd and cmd/bfsload take before handing the graph to Add,
// AddDynamic or AddCluster. name only labels the error.
//
// Spec grammar:
//
//	file:PATH                                 binary CSR file (graphgen/Save format) that Validate accepts
//	kron:scale=S[,edgefactor=E][,seed=N]      Graph500-style Kronecker graph
//	uniform:n=N[,degree=D][,seed=N]           Erdős–Rényi random graph
//	social:n=N[,seed=N]                       LDBC-like social network
func (r *Registry) BuildGraph(name, spec string) (*msbfs.Graph, error) {
	sp := r.tracer.StartSpan("graph-build", spec)
	g, err := buildGraph(spec)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("server: graph %q: %w", name, err)
	}
	return g, nil
}

// addBackend is the one registration path; Add, AddDynamic and AddCluster
// differ only in the open they pass. It defaults cfg.Engine to the
// registry's engine, pre-spawned to cfg.Workers so the first flush is warm,
// applies the paper's striped relabeling sized to cfg.Workers when
// relabel is set (the labeling every heavy BFS workload should run under),
// then calls open with the entry — e.G is the graph traversals run on,
// e.Perm its permutation — and the normalized config, to obtain the backend
// the entry's coalescer dispatches to; the coalescer also gets the graph's
// name and the registry's flight recorder, tracer and logger. open may fill
// in the entry's backend-specific fields (Dyn, ClusterMet).
func (r *Registry) addBackend(name, spec string, g *msbfs.Graph, relabel bool, cfg Config,
	open func(e *Entry, cfg Config) (Backend, error)) (*Entry, error) {
	cfg = cfg.normalize()
	if cfg.Engine == nil {
		cfg.Engine = r.eng
	}
	cfg.Engine.Prewarm(cfg.Workers)
	e := &Entry{Name: name, Spec: spec, G: g, Met: NewMetrics()}
	if relabel && g.NumVertices() > 0 {
		sp := r.tracer.StartSpan("relabel", name)
		e.G, e.Perm = g.Relabel(msbfs.LabelStriped, cfg.Workers, 512, 1)
		sp.End()
	}
	b, err := open(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("server: graph %q: %w", name, err)
	}
	// Components are counted once, here: on a dynamic graph whose ingest
	// merges components the GTEPS edge count is a lower bound.
	e.Coal = NewCoalescer(b, cfg, e.Met, e.G.NewEdgeCounter().EdgesForAll)
	e.Coal.name, e.Coal.rec, e.Coal.tracer, e.Coal.logger = name, r.rec, r.tracer, r.logger
	e.rows = entryTable(e)
	return r.register(e)
}

// Add registers an already-built graph served in-process: the (relabeled)
// graph is its own backend.
func (r *Registry) Add(name string, g *msbfs.Graph, relabel bool, cfg Config) (*Entry, error) {
	return r.addBackend(name, "inprocess", g, relabel, cfg,
		func(e *Entry, _ Config) (Backend, error) { return e.G, nil })
}

// AddCluster registers an already-built graph backed by coord's shard
// cluster: the striped-relabeled graph is 1D vertex-partitioned and shipped
// to the shards, and every coalesced batch runs as a distributed
// level-synchronous traversal. The full graph is kept locally for id
// validation and /graphs accounting; the traversal memory and work live on
// the shards.
func (r *Registry) AddCluster(ctx context.Context, name, spec string, g *msbfs.Graph, coord *cluster.Coordinator, cfg Config) (*Entry, error) {
	return r.addBackend(name, spec, g, true, cfg, func(e *Entry, cfg Config) (Backend, error) {
		sp := r.tracer.StartSpan("cluster-load", name)
		defer sp.End()
		e.ClusterMet = coord.Metrics()
		return coord.LoadGraph(ctx, name, e.G, cfg.Workers)
	})
}

// AddDynamic registers an already-built graph as a dynamic one: it seeds
// version 1, and the entry accepts streamed edges through ApplyEdges (the
// POST /graphs/{id}/edges endpoint), translated through the same
// permutation as query sources. The registry wires its span tracer into
// dcfg so ingest and compaction phases land in the daemon's flight
// recorder.
func (r *Registry) AddDynamic(name, spec string, g *msbfs.Graph, relabel bool, cfg Config, dcfg dyngraph.Config) (*Entry, error) {
	return r.addBackend(name, spec, g, relabel, cfg, func(e *Entry, _ Config) (Backend, error) {
		if dcfg.Tracer == nil {
			dcfg.Tracer = r.tracer
		}
		e.Dyn = dyngraph.New(e.G, dcfg)
		return e.Dyn, nil
	})
}

func (r *Registry) register(e *Entry) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.graphs[e.Name]; dup {
		e.Coal.Close()
		return nil, fmt.Errorf("server: graph %q already registered", e.Name)
	}
	r.graphs[e.Name] = e
	return e, nil
}

// Get returns the named entry. With the empty name and exactly one
// registered graph, that graph is returned — the single-graph deployment
// convenience.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" && len(r.graphs) == 1 {
		for _, e := range r.graphs {
			return e, true
		}
	}
	e, ok := r.graphs[name]
	return e, ok
}

// Names lists the registered graphs, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for n := range r.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close drains every graph's coalescer — pending requests are flushed as
// final batches and in-flight batches complete — then releases the shared
// engine's pooled workers and arena memory.
func (r *Registry) Close() {
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.Coal.Close()
		if e.Dyn != nil {
			e.Dyn.Close()
		}
	}
	r.eng.Close()
}

// buildGraph materializes a graph from a registry spec.
func buildGraph(spec string) (*msbfs.Graph, error) {
	scheme, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("spec %q: want SCHEME:ARGS", spec)
	}
	if scheme == "file" {
		// The file is only known to be a CSR; the kernels, the relabel and
		// the edge counter need the symmetric, loop-free one Validate proves.
		g, err := msbfs.LoadFile(rest)
		if err == nil {
			err = g.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("file %q: %w", rest, err)
		}
		return g, nil
	}
	kv, err := parseSpecArgs(rest)
	if err != nil {
		return nil, fmt.Errorf("spec %q: %w", spec, err)
	}
	switch scheme {
	case "kron":
		scale, err := kv.intArg("scale", 0)
		if err != nil || scale <= 0 {
			return nil, fmt.Errorf("spec %q: kron needs scale>0", spec)
		}
		ef, err := kv.intArg("edgefactor", 16)
		if err != nil {
			return nil, err
		}
		seed, err := kv.intArg("seed", 42)
		if err != nil {
			return nil, err
		}
		return msbfs.GenerateKronecker(scale, ef, uint64(seed)), nil
	case "uniform":
		n, err := kv.intArg("n", 0)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("spec %q: uniform needs n>0", spec)
		}
		deg, err := kv.intArg("degree", 16)
		if err != nil {
			return nil, err
		}
		seed, err := kv.intArg("seed", 42)
		if err != nil {
			return nil, err
		}
		return msbfs.GenerateUniform(n, deg, uint64(seed)), nil
	case "social":
		n, err := kv.intArg("n", 0)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("spec %q: social needs n>0", spec)
		}
		seed, err := kv.intArg("seed", 42)
		if err != nil {
			return nil, err
		}
		return msbfs.GenerateSocial(n, uint64(seed)), nil
	default:
		return nil, fmt.Errorf("spec %q: unknown scheme %q (file, kron, uniform, social)", spec, scheme)
	}
}

type specArgs map[string]string

func parseSpecArgs(s string) (specArgs, error) {
	kv := specArgs{}
	if s == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("malformed argument %q (want k=v)", pair)
		}
		kv[k] = v
	}
	return kv, nil
}

func (a specArgs) intArg(key string, def int) (int, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("argument %s=%q: not an integer", key, s)
	}
	return v, nil
}
