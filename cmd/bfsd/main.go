// Command bfsd serves BFS queries over HTTP, coalescing concurrent
// single-source requests into multi-source MS-PBFS batches (see
// docs/SERVER.md).
//
// Usage:
//
//	bfsd -graph demo=kron:scale=14 -addr :8080
//	bfsd -graph social=social:n=200000 -graph web=file:web.bin \
//	     -workers 8 -maxbatch 256
//	bfsd -graph demo=kron:scale=14 -debug-addr 127.0.0.1:6060
//
// Cluster mode shards each graph's vertex range across bfsd shard
// processes (1D partitioning with bitset-compressed frontier exchange;
// see docs/CLUSTER.md). Start the shards first, then the coordinator:
//
//	bfsd -shard :9001 &
//	bfsd -shard :9002 &
//	bfsd -graph demo=kron:scale=20 -shards host1:9001,host2:9002 -addr :8080
//
// Dynamic mode accepts streamed edge inserts while serving queries
// (MVCC snapshots over the CSR; see docs/DYNAMIC.md):
//
//	bfsd -graph live=uniform:n=100000 -dynamic -addr :8080
//	curl -X POST localhost:8080/graphs/live/edges -d '{"edges":[[1,2],[3,4]]}'
//
// Endpoints: POST /bfs /closeness /reachability /khop;
// GET /graphs /healthz /metrics. With -debug-addr a second, separate
// listener serves the debug surface (pprof, runtime/trace capture, the
// request flight recorder; see docs/OBSERVABILITY.md) — off by default so
// profiling endpoints are never reachable from the query port.
// SIGINT/SIGTERM drains gracefully: the listener stops, queued requests
// are served as final batches, in-flight batches finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyngraph"
	"repro/internal/server"
)

// graphFlags collects repeated -graph name=spec flags.
type graphFlags map[string]string

func (g graphFlags) String() string { return fmt.Sprint(map[string]string(g)) }

func (g graphFlags) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=SPEC, got %q", v)
	}
	if _, dup := g[name]; dup {
		return fmt.Errorf("duplicate graph name %q", name)
	}
	g[name] = spec
	return nil
}

func main() {
	graphs := graphFlags{}
	flag.Var(graphs, "graph", "serve a graph: NAME=SPEC (repeatable; specs: kron:scale=S, "+
		"uniform:n=N, social:n=N, powerlaw:n=N, web:n=N, collab:n=N or file:PATH; see docs/SERVER.md)")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "serve pprof/runtime-trace/flight-recorder debug endpoints on this address (empty: disabled)")
		workers    = flag.Int("workers", runtime.NumCPU(), "traversal workers per batch")
		maxBatch   = flag.Int("maxbatch", 64, "widest batch in sources; a batch of w sources runs on ceil(w/64)-word rows (1: disable coalescing)")
		maxPending = flag.Int("maxpending", 0, "bound on a graph's admitted requests, queued or running; beyond it requests get 429 (0: 4x the widest batch)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request server-side timeout")
		drainWait  = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
		slowQuery  = flag.Duration("slow-query", server.DefaultSlowQuery, "latency above which a request enters the slow-query log and is logged")
		statsTick  = flag.Duration("stats-interval", server.DefaultStatsInterval, "time-series sampler cadence behind /debug/stats and /debug/dash (needs -debug-addr)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of logfmt text")
		logLevel   = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		shardAddr  = flag.String("shard", "", "run as a cluster shard listening on this address (no -graph/-addr; see docs/CLUSTER.md)")
		shardList  = flag.String("shards", "", "comma-separated shard addresses; serve every -graph from this shard cluster instead of in-process")
		dynamic    = flag.Bool("dynamic", false, "serve every -graph as a dynamic graph: POST /graphs/NAME/edges ingests edges, queries pin MVCC versions (see docs/DYNAMIC.md; exclusive with -shards)")
		maxDelta   = flag.Int64("max-delta", 0, "dynamic mode: max uncompacted overlay arcs before ingest gets 409 backpressure (0: library default)")
	)
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logJSON, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsd:", err)
		os.Exit(1)
	}
	if *shardAddr != "" {
		if len(graphs) > 0 || *shardList != "" {
			logger.Error("-shard is exclusive with -graph and -shards")
			os.Exit(1)
		}
		if err := runShard(logger, *shardAddr, *workers); err != nil {
			logger.Error("exiting", "err", err)
			os.Exit(1)
		}
		return
	}
	var shards []string
	if *shardList != "" {
		shards = strings.Split(*shardList, ",")
	}
	if *dynamic && *shardList != "" {
		logger.Error("-dynamic is exclusive with -shards (ingest is single-process)")
		os.Exit(1)
	}
	if err := run(logger, graphs, *addr, *debugAddr, shards, *dynamic, *maxDelta, server.Config{
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		MaxPending:     *maxPending,
		RequestTimeout: *timeout,
	}, *slowQuery, *statsTick, *drainWait); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// boundedServer returns an http.Server whose read side cannot be held open
// by a slow or idle client: headers within 5 s, the whole request (body
// included — bodies are size-capped by the handlers) within 30 s, idle
// keep-alive connections reaped after 2 min. There is deliberately no
// WriteTimeout: request deadlines bound query answers, and the debug
// listener streams multi-second profiles.
func boundedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// newLogger builds the daemon's structured logger: logfmt text by default,
// JSON for log pipelines.
func newLogger(w *os.File, asJSON bool, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h), nil
}

// runShard serves one cluster shard: a bare TCP protocol server owning a
// vertex slice of every graph the coordinator ships, no HTTP surface.
func runShard(logger *slog.Logger, addr string, workers int) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sh := cluster.NewShard(cluster.ShardOptions{Workers: workers})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	//bfs:detached shard serve goroutine; joined via the errc channel below
	go func() {
		errc <- sh.Serve(lis)
	}()
	logger.Info("shard listening", "addr", lis.Addr().String(), "workers", workers)
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Info("signal received; closing shard")
	sh.Close()
	<-errc
	logger.Info("shard drained cleanly")
	return nil
}

func run(logger *slog.Logger, graphs graphFlags, addr, debugAddr string, shards []string,
	dynamic bool, maxDelta int64, cfg server.Config, slowQuery, statsTick, drainWait time.Duration) error {
	if len(graphs) == 0 {
		return errors.New("no graphs to serve (pass at least one -graph NAME=SPEC)")
	}
	reg := server.NewRegistry()
	reg.SetLogger(logger)
	reg.SetSlowQuery(slowQuery)
	var coord *cluster.Coordinator
	if len(shards) > 0 {
		var err error
		// Untraced, like single-process serving: the registry's tracer
		// keeps spans, and no served query reads a traversal record.
		coord, err = cluster.NewCoordinator(context.Background(), shards, cluster.CoordinatorOptions{})
		if err != nil {
			return err
		}
		defer coord.Close()
		logger.Info("cluster attached", "shards", len(shards))
	}
	for name, spec := range graphs {
		start := time.Now()
		g, err := reg.BuildGraph(name, spec)
		if err != nil {
			return err
		}
		var e *server.Entry
		backend := "local"
		switch {
		case coord != nil:
			backend = fmt.Sprintf("cluster/%d-shards", coord.NumShards())
			e, err = reg.AddCluster(context.Background(), name, spec, g, coord, cfg)
		case dynamic:
			backend = "dynamic"
			e, err = reg.AddDynamic(name, spec, g, true, cfg, dyngraph.Config{
				MaxDelta:    maxDelta,
				AutoCompact: true,
			})
		default:
			e, err = reg.Add(name, g, true, cfg)
		}
		if err != nil {
			return err
		}
		e.Spec = spec // Add recorded "inprocess"; nothing reads the entry before the listener starts
		logger.Info("graph loaded",
			"graph", name, "spec", spec, "backend", backend,
			"vertices", e.G.NumVertices(), "edges", e.G.NumEdges(),
			"relabel", "striped", "elapsed", time.Since(start).Round(time.Millisecond))
	}
	srv := server.New(reg, cfg)
	httpSrv := boundedServer(addr, srv)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//bfs:detached listener goroutine; joined via the errc channel below
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()
	logger.Info("listening", "addr", addr, "workers", cfg.Workers)

	// The debug surface binds its own listener so it can be kept on
	// loopback (or off, the default) while the query port is public.
	var debugSrv *http.Server
	if debugAddr != "" {
		debugSrv = boundedServer(debugAddr, server.NewDebugHandler(reg))
		//bfs:detached debug listener goroutine; shut down alongside the main listener
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", debugAddr, "err", err)
			}
		}()
		// The time-series sampler only runs when something can read it:
		// the dash and stats endpoints live on this debug listener.
		stopStats := reg.StartStatsSampler(statsTick)
		defer stopStats()
		logger.Info("debug endpoints enabled", "addr", debugAddr,
			"slow_query", slowQuery, "stats_interval", statsTick)
	}

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Info("signal received; draining", "grace", drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("debug listener shutdown", "err", err)
		}
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("listener shutdown: %w", err)
	}
	<-errc // reap the listener goroutine (returns ErrServerClosed)
	st := reg.Engine().Stats()
	srv.Close() // serve queued requests as final batches, wait for batches; releases the engine
	logger.Info("engine at drain",
		"pooled_workers", st.PooledWorkers,
		"arena_free_shells", st.FreeShells,
		"arena_free_bytes", st.FreeBytes,
		"arena_lifetime_hits", st.Hits, "arena_lifetime_lookups", st.Hits+st.Misses)
	logger.Info("drained cleanly")
	return nil
}
