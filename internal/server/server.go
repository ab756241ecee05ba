package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
)

// Server is the HTTP front end: JSON query endpoints over a Registry, plus
// the observability surface.
//
//	POST /bfs           {"graph","source","targets"}        -> visited, eccentricity, distances
//	POST /closeness     {"graph","source"}                  -> closeness
//	POST /reachability  {"graph","source","target"}         -> reachable
//	POST /khop          {"graph","source","hops"}           -> count
//	POST /graphs/{graph}/edges  {"edges":[[u,v],...]}       -> streamed ingest (dynamic graphs)
//	GET  /graphs                                            -> served graphs + sizes
//	GET  /healthz                                           -> liveness
//	GET  /metrics                                           -> Prometheus text format
//
// Query endpoints accept ?version=N to pin the traversal to a specific
// published version of a dynamic graph (410 once it ages out of retention,
// 400 if it was never published); responses carry the version served.
// Ingest answers 409 when the delta overlay is full and compaction is
// lagging — the backpressure signal to retry after the compactor catches
// up.
//
// Every query response carries the width of the batch that served it and
// the queue/traversal times, so clients (cmd/bfsload) can observe the
// coalescing directly.
type Server struct {
	reg *Registry
	cfg Config
	mux *http.ServeMux
}

// New builds a Server over reg. cfg supplies the per-request timeout;
// per-graph batching is configured when graphs are registered.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{reg: reg, cfg: cfg.normalize(), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /bfs", s.query(KindBFS))
	s.mux.HandleFunc("POST /closeness", s.query(KindCloseness))
	s.mux.HandleFunc("POST /reachability", s.query(KindReachability))
	s.mux.HandleFunc("POST /khop", s.query(KindKHop))
	s.mux.HandleFunc("POST /graphs/{graph}/edges", s.ingest)
	s.mux.HandleFunc("GET /graphs", s.graphs)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the registry's coalescers (flush + wait). The HTTP listener
// shutdown is the caller's job (http.Server.Shutdown before Close).
func (s *Server) Close() { s.reg.Close() }

// queryRequest is the JSON body shared by all query endpoints; each kind
// reads the fields it needs.
type queryRequest struct {
	Graph   string `json:"graph,omitempty"`
	Source  int    `json:"source"`
	Targets []int  `json:"targets,omitempty"` // bfs distance targets
	Target  *int   `json:"target,omitempty"`  // reachability target
	Hops    int    `json:"hops,omitempty"`    // khop radius
	// TimeoutMS overrides the server's request timeout (bounded by it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Version pins the query to a published version of a dynamic graph
	// (0: current). The ?version= query parameter takes precedence.
	Version uint64 `json:"version,omitempty"`
}

// queryResponse is the JSON answer. Kind-specific fields are omitted when
// empty.
type queryResponse struct {
	Graph        string  `json:"graph"`
	Kind         Kind    `json:"kind"`
	Source       int     `json:"source"`
	Visited      int64   `json:"visited,omitempty"`
	Eccentricity int32   `json:"eccentricity,omitempty"`
	Distances    []int32 `json:"distances,omitempty"`
	Closeness    float64 `json:"closeness,omitempty"`
	Reachable    *bool   `json:"reachable,omitempty"`
	Count        int64   `json:"count,omitempty"`
	BatchWidth   int     `json:"batch_width"`
	WaitMicros   int64   `json:"wait_us"`
	RunMicros    int64   `json:"run_us"`
	TraceID      uint64  `json:"trace_id,omitempty"`
	GraphVersion uint64  `json:"graph_version,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Request body caps. A query is a source plus at most a target list; an
// ingest batch may carry enough edges to fill the default delta overlay
// (2^19 edges at up to 24 JSON bytes each). Anything larger is answered 413
// before it is buffered.
const (
	maxQueryBody  = 1 << 20
	maxIngestBody = 16 << 20
)

// decodeBody reads at most limit bytes of JSON request body into v. On
// failure it writes the error response — 413 for an oversized body, 400
// for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding request: %w", err))
	return false
}

func (s *Server) query(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req queryRequest
		if !decodeBody(w, r, maxQueryBody, &req) {
			return
		}
		e, ok := s.reg.Get(req.Graph)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q (serving: %s)",
				req.Graph, strings.Join(s.reg.Names(), ", ")))
			return
		}
		q := Query{Kind: kind, Source: req.Source, Targets: req.Targets, Hops: req.Hops,
			Version: req.Version}
		if vs := r.URL.Query().Get("version"); vs != "" {
			v, err := strconv.ParseUint(vs, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?version=%q: %w", vs, err))
				return
			}
			q.Version = v
		}
		if kind == KindReachability {
			if req.Target == nil {
				writeError(w, http.StatusBadRequest, errors.New("reachability requires \"target\""))
				return
			}
			q.Targets = []int{*req.Target}
		}

		timeout := s.cfg.RequestTimeout
		if req.TimeoutMS > 0 {
			if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
				timeout = t
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		ans, err := e.Submit(ctx, q)
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		resp := queryResponse{
			Graph:        e.Name,
			Kind:         kind,
			Source:       req.Source,
			Visited:      ans.Visited,
			Eccentricity: ans.Eccentricity,
			Distances:    ans.Distances,
			Closeness:    ans.Closeness,
			Count:        ans.Count,
			BatchWidth:   ans.BatchWidth,
			WaitMicros:   ans.Wait.Microseconds(),
			RunMicros:    ans.Run.Microseconds(),
			TraceID:      ans.TraceID,
			GraphVersion: ans.GraphVersion,
		}
		if kind == KindReachability {
			resp.Reachable = &ans.Reachable
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// ingestRequest is the POST /graphs/{graph}/edges body: each edge is a
// [u, v] pair of external vertex ids.
type ingestRequest struct {
	Edges [][2]uint32 `json:"edges"`
}

// ingestResponse reports what the batch did and which version now serves.
type ingestResponse struct {
	Graph      string `json:"graph"`
	Version    uint64 `json:"version"`
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	SelfLoops  int    `json:"self_loops"`
	DeltaArcs  int64  `json:"delta_arcs"`
}

// ingest streams an edge batch into a dynamic graph. 400 for malformed
// bodies, out-of-range endpoints or static graphs; 413 for oversized bodies; 409 when the delta is
// full and compaction lags (retry after backoff); 404 for unknown graphs.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("graph"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q (serving: %s)",
			r.PathValue("graph"), strings.Join(s.reg.Names(), ", ")))
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, maxIngestBody, &req) {
		return
	}
	edges := make([]msbfs.Edge, len(req.Edges))
	for i, p := range req.Edges {
		edges[i] = msbfs.Edge{U: p[0], V: p[1]}
	}
	res, err := e.ApplyEdges(edges)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Graph:      e.Name,
		Version:    res.Version,
		Accepted:   res.Accepted,
		Duplicates: res.Duplicates,
		SelfLoops:  res.SelfLoops,
		DeltaArcs:  res.DeltaArcs,
	})
}

// writeSubmitError maps coalescer errors onto HTTP status codes; 429 and
// 409 carry a Retry-After hint.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, dyngraph.ErrBadEdge),
		errors.Is(err, dyngraph.ErrVersionFuture):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, dyngraph.ErrVersionGone):
		// The pinned version aged out of retention: permanently gone.
		writeError(w, http.StatusGone, err)
	case errors.Is(err, dyngraph.ErrCompactionLag):
		// Ingest backpressure: the delta overlay is full until the
		// compactor folds it into the CSR. Conflict with current state,
		// retryable — 409.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, dyngraph.ErrArcLimit):
		// The graph cannot grow by this batch at all: more arcs than a
		// CSR holds. Not retryable.
		writeError(w, http.StatusInsufficientStorage, err)
	case errors.Is(err, dyngraph.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, cluster.ErrShardDown):
		// A dead shard is an availability incident, not a client error; the
		// coordinator keeps serving its other graphs.
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is a formality.
		writeError(w, 499, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

type graphInfo struct {
	Name     string `json:"name"`
	Spec     string `json:"spec"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	MaxBatch int    `json:"max_batch"`
	Dynamic  bool   `json:"dynamic,omitempty"`
	Version  uint64 `json:"version,omitempty"`
}

func (s *Server) graphs(w http.ResponseWriter, _ *http.Request) {
	var infos []graphInfo
	for _, name := range s.reg.Names() {
		e, _ := s.reg.Get(name)
		info := graphInfo{
			Name:     e.Name,
			Spec:     e.Spec,
			Vertices: e.Coal.g.NumVertices(),
			MaxBatch: e.Coal.Config().MaxBatch,
		}
		// A dynamic entry's G is re-pointed by ingest; its counts come
		// from the current version instead.
		if e.Dyn != nil {
			st := e.Dyn.Stats()
			info.Dynamic = true
			info.Version = st.Version
			info.Edges = st.BaseEdges + st.DeltaArcs/2
		} else {
			info.Edges = e.G.NumEdges()
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"graphs": s.reg.Names(),
	})
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, t := range s.reg.metricTables() {
		t.writeTo(w)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// Unreachable is the distance value reported for unreachable targets in
// query responses, re-exported so clients need not import the library.
const Unreachable = msbfs.NoLevel
