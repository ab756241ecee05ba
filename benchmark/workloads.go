package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	msbfs "repro"
	"repro/internal/dyngraph"
	"repro/internal/server"
)

// spec is one workload. BENCHMARK.json carries the same names and
// reasons; README.md has the long form.
type spec struct {
	name, why string
	scale     int  // Kronecker scale, edge factor 16
	serving   bool // through Registry + Server.ServeHTTP, else direct Graph calls
	dynamic   bool // registered with AddDynamic, with a writer beside the readers
	callers   int  // closed-loop callers; 0 means the reads are open loop
	batch     int  // offline: sources per op (1 runs Graph.BFS, more Graph.MultiBFS)
	readRate  float64
	postRate  float64
}

const (
	edgeFactor = 16
	// maxDelta is the ingest workload's overlay cap in arcs. The compactor
	// starts at half of it, so 40 posts/s x 64 edges compact about every
	// 1.6 s: about one cycle in every measured window.
	maxDelta = 16384
)

var specs = []spec{
	{name: "offline-multi", scale: 18, callers: 1, batch: batchSize,
		why: "The paper's headline: closed-loop 64-source MS-PBFS batches on a graph past L2; only core/bitset/sched work, so a server change must not move it."},
	{name: "offline-single", scale: 18, callers: 1, batch: 1,
		why: "SMS-PBFS, k=1 on the same graph: per-iteration O(n) work dominates edge work, so a k-wide gain that taxes single-source shows here."},
	{name: "serve-sparse", scale: 16, serving: true, readRate: 160,
		why: "Open loop, Poisson 160 req/s through ServeHTTP: batches never fill, latency is flush wait + a lone traversal + JSON; where the cut policy must show."},
	{name: "serve-saturated", scale: 16, serving: true, callers: 128,
		why: "Closed loop, 128 callers: the runner is always busy and batches fill by themselves; throughput is kernel + demux + encode, the flush deadline does nothing."},
	{name: "serve-ingest", scale: 16, serving: true, dynamic: true, callers: 32, postRate: 40,
		why: "32 closed-loop readers beside one open-loop writer on a dynamic graph: pinned snapshots, overlay scans and compaction share the stack; ingest cost or a stall shows only here."},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rig is one set-up instance of a workload: the program under test plus
// the seeded inputs and expected answers the harness holds against it.
type rig struct {
	sp      spec
	seed    uint64
	workers int
	tl      *timeline
	// parts are the per-layer pieces of set-up time, in seconds.
	parts map[string]float64

	// g is the graph the oracle reads: the striped graph offline ops run
	// on, or the external-id graph a served client's ids refer to.
	g   *msbfs.Graph
	ec  *msbfs.EdgeCounter
	eng *msbfs.Engine // offline: pinned engine; serving: the registry's
	opt msbfs.Options

	// Offline inputs: the 512 seeded sources in batches of sp.batch, with
	// the visited total and Graph500 edge count each batch's components
	// imply.
	batches     [][]int
	wantVisited []int64
	batchEdges  []int64

	// Serving.
	srv   *server.Server
	entry *server.Entry
	pool  []query
	want  []answer
	posts []ingestPost

	mu      sync.Mutex
	log     []versionedEdges
	sampled []sampledReply
}

// setUp generates the graph and brings the program to the state in which
// it takes the workload's first op, timing each layer's piece. Everything
// here is set-up a user pays; the oracle (prepare) is not.
func setUp(sp spec, seed uint64, flush time.Duration) (*rig, error) {
	r := &rig{sp: sp, seed: seed, workers: runtime.NumCPU(), parts: map[string]float64{}}
	timed := func(name string, f func()) {
		t := time.Now()
		f()
		r.parts[name] = time.Since(t).Seconds()
	}
	var g0 *msbfs.Graph
	timed("gen.kronecker_s", func() { g0 = msbfs.GenerateKronecker(sp.scale, edgeFactor, seed) })

	if !sp.serving {
		timed("label.striped_s", func() { r.g, _ = g0.Relabel(msbfs.LabelStriped, r.workers, 512, 1) })
		// NewEngine prewarms already; the explicit call keeps the metric
		// on Engine.Prewarm should the constructor stop doing so.
		timed("core.engine_prewarm_s", func() {
			r.eng = msbfs.NewEngine(msbfs.Options{Workers: r.workers})
			r.eng.Prewarm(r.workers)
		})
		r.opt = msbfs.Options{Workers: r.workers, BatchWords: 1, Engine: r.eng}
		return r, nil
	}

	r.g = g0
	cfg := server.Config{Workers: r.workers, FlushDeadline: flush}
	var reg *server.Registry
	// Registry.Add prewarms too; doing it here puts the pool spawn under
	// its own name instead of inside server.registry_add_s.
	timed("core.engine_prewarm_s", func() {
		reg = server.NewRegistry()
		reg.Engine().Prewarm(r.workers)
	})
	var err error
	timed("server.registry_add_s", func() {
		if sp.dynamic {
			r.entry, err = reg.AddDynamic(graphName, "kron", g0, true, cfg,
				dyngraph.Config{AutoCompact: true, MaxDelta: maxDelta})
		} else {
			r.entry, err = reg.Add(graphName, g0, true, cfg)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", sp.name, err)
	}
	r.srv = server.New(reg, cfg)
	r.eng = reg.Engine()
	r.opt = msbfs.Options{Workers: r.workers, BatchWords: 1, Engine: r.eng}
	return r, nil
}

// close stops the program's goroutines.
func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close() // drains the coalescers, closes the registry's engine
	} else {
		r.eng.Close()
	}
}

// prepare draws the seeded inputs for a run of the given length and the
// oracle's expected answers. Untimed for setup_s (harness.oracle_s).
func (r *rig) prepare(total time.Duration) {
	r.ec = r.g.NewEdgeCounter()
	switch {
	case r.sp.serving:
		r.pool = buildPool(r.g, r.seed)
		r.want = poolOracle(r.g, r.pool, r.workers)
		if r.sp.dynamic {
			r.posts = buildIngest(r.g.NumVertices(), r.seed, int(r.sp.postRate*total.Seconds()*1.5)+postEdges)
		}
	default:
		comp, sizes := r.g.Components()
		sources := r.g.RandomSources(poolSize, r.seed*8+seedSources)
		for i := 0; i+r.sp.batch <= len(sources); i += r.sp.batch {
			b := sources[i : i+r.sp.batch]
			var visited int64
			for _, s := range b {
				visited += sizes[comp[s]]
			}
			r.batches = append(r.batches, b)
			r.wantVisited = append(r.wantVisited, visited)
			r.batchEdges = append(r.batchEdges, r.ec.EdgesForAll(b))
		}
	}
}

// readOp is the workload's measured operation.
func (r *rig) readOp() opFunc {
	if r.sp.serving {
		return r.serveRead
	}
	return r.offlineOp
}

// offlineOp is one Graph.MultiBFS of 64 sources, or one Graph.BFS
// (SMS-PBFS, bit state) of a single source, checked by the visited total
// its sources' component sizes imply (verifyLevels checks whole level
// arrays once per run).
func (r *rig) offlineOp(seq int, tr bool) reply {
	i := seq % len(r.batches)
	opt := r.opt
	opt.CollectIterStats = tr
	var visited int64
	var iters []msbfs.IterationStat
	if b := r.batches[i]; len(b) == 1 {
		res := r.g.BFS(b[0], opt)
		visited, iters = res.VisitedVertices, res.Iterations
	} else {
		res := r.g.MultiBFS(b, opt)
		visited, iters = res.VisitedStates, res.Iterations
	}
	return reply{ret: r.tl.now(), ok: visited == r.wantVisited[i],
		edges: r.batchEdges[i], opID: uint64(seq), iters: iters}
}

// verifyLevels checks one whole level matrix (offline-multi: batch 0) or
// 16 single-source level arrays against SequentialBFS. Run after the
// windows: 64 level rows would otherwise sit in peak_rss_mb.
func (r *rig) verifyLevels() error {
	opt := r.opt
	opt.RecordLevels = true
	if r.sp.batch > 1 {
		return checkLevels(r.g, r.batches[0], r.g.MultiBFS(r.batches[0], opt).Levels)
	}
	for _, b := range r.batches[:16] {
		if err := checkLevels(r.g, b, [][]int32{r.g.BFS(b[0], opt).Levels}); err != nil {
			return err
		}
	}
	return nil
}

// queryResponse mirrors the daemon's JSON reply (its own type is
// unexported, as a real client's would be separate).
type queryResponse struct {
	Kind         string  `json:"kind"`
	Source       int     `json:"source"`
	Visited      int64   `json:"visited"`
	Eccentricity int32   `json:"eccentricity"`
	Distances    []int32 `json:"distances"`
	Closeness    float64 `json:"closeness"`
	Reachable    *bool   `json:"reachable"`
	Count        int64   `json:"count"`
	WaitMicros   int64   `json:"wait_us"`
	RunMicros    int64   `json:"run_us"`
	TraceID      uint64  `json:"trace_id"`
	GraphVersion uint64  `json:"graph_version"`
}

type ingestResponse struct {
	Version  uint64 `json:"version"`
	Accepted int    `json:"accepted"`
}

// serve sends one request into the daemon stack the way a connection
// would, minus the socket, and returns the recorded response.
func (r *rig) serve(path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.srv.ServeHTTP(rec, req)
	return rec
}

// sampleEvery is the share of the ingest workload's replies re-derived
// exactly after the run (1 in 50).
const sampleEvery = 50

// serveRead sends pool query seq through Server.ServeHTTP with its real
// JSON body and checks the decoded reply against the oracle. In a traced
// phase alternate ops go through Entry.Submit instead, which is what
// separates the coalescer's demux from the HTTP layer's decode/encode.
func (r *rig) serveRead(seq int, tr bool) reply {
	qi := seq % len(r.pool)
	q := &r.pool[qi]
	rep := reply{opID: uint64(seq), edges: r.ec.EdgesFor(q.source)}
	var got answer
	var version uint64
	if tr && seq%2 == 1 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ans, err := r.entry.Submit(ctx, server.Query{Kind: server.Kind(q.kind), Source: q.source, Targets: q.targets, Hops: q.hops})
		cancel()
		rep.ret, rep.direct = r.tl.now(), true
		if err != nil {
			return rep
		}
		got = answer{visited: ans.Visited, ecc: ans.Eccentricity, dists: ans.Distances,
			closeness: ans.Closeness, reachable: ans.Reachable, count: ans.Count}
		rep.waitUS, rep.runUS = ans.Wait.Microseconds(), ans.Run.Microseconds()
		version = ans.GraphVersion
		if ans.TraceID != 0 {
			rep.opID = ans.TraceID
		}
	} else {
		rec := r.serve("/"+q.kind, q.body)
		rep.ret, rep.bytes = r.tl.now(), rec.Body.Len()
		var resp queryResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
			resp.Kind != q.kind || resp.Source != q.source {
			return rep
		}
		got = answer{visited: resp.Visited, ecc: resp.Eccentricity, dists: resp.Distances,
			closeness: resp.Closeness, reachable: resp.Reachable != nil && *resp.Reachable, count: resp.Count}
		rep.waitUS, rep.runUS = resp.WaitMicros, resp.RunMicros
		version = resp.GraphVersion
		if resp.TraceID != 0 {
			rep.opID = resp.TraceID
		}
	}
	if !r.sp.dynamic {
		rep.ok = r.want[qi].matches(q, &got)
		return rep
	}
	rep.ok = version > 0 && r.want[qi].atLeast(q, &got)
	if seq%sampleEvery == 0 {
		r.mu.Lock()
		r.sampled = append(r.sampled, sampledReply{query: qi, version: version, got: got})
		r.mu.Unlock()
	}
	return rep
}

// servePost ingests post seq through POST /graphs/g/edges (alternate ops
// of a traced phase through Entry.ApplyEdges) and logs the edges under the
// version the reply names, for the ingest oracle.
func (r *rig) servePost(seq int, tr bool) reply {
	p := &r.posts[seq%len(r.posts)]
	rep := reply{opID: uint64(seq)}
	var version uint64
	if tr && seq%2 == 1 {
		edges := make([]msbfs.Edge, len(p.edges))
		for i, e := range p.edges {
			edges[i] = msbfs.Edge{U: e[0], V: e[1]}
		}
		res, err := r.entry.ApplyEdges(edges)
		rep.ret, rep.direct = r.tl.now(), true
		if err != nil {
			return rep
		}
		version = res.Version
	} else {
		rec := r.serve("/graphs/"+graphName+"/edges", p.body)
		rep.ret, rep.bytes = r.tl.now(), rec.Body.Len()
		var resp ingestResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			return rep
		}
		version = resp.Version
	}
	rep.ok = version > 0
	r.mu.Lock()
	r.log = append(r.log, versionedEdges{version: version, edges: p.edges})
	r.mu.Unlock()
	return rep
}

// counters is the program's and the process's cumulative state at one
// instant; per-window numbers are differences of two of them.
type counters struct {
	cpu                                  time.Duration
	eng                                  msbfs.EngineStats
	requests, rejected, batches, sources int64
	dyn                                  dyngraph.Stats
	mallocs                              uint64
	gcPause                              time.Duration
	steal, hostCPU                       float64 // /proc/stat jiffies
}

// snapshot reads the counters. mem asks for runtime.MemStats too, which
// stops the world briefly and is therefore left out of untraced runs.
func (r *rig) snapshot(mem bool) counters {
	c := counters{cpu: cpuTime(), eng: r.eng.Stats()}
	c.steal, c.hostCPU = procStat()
	if r.entry != nil {
		m := r.entry.Met
		c.requests, c.rejected = m.Requests.Load(), m.Rejected.Load()
		c.batches, c.sources = m.Batches.Load(), m.Sources.Load()
		if r.entry.Dyn != nil {
			c.dyn = r.entry.Dyn.Stats()
		}
	}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.gcPause = ms.Mallocs, time.Duration(ms.PauseTotalNs)
	}
	return c
}

// tick is one 10 ms sample of the daemon's queues.
type tick struct {
	at        time.Duration
	queueLen  int
	deltaArcs int64
	pinned    int64
}

// run plays the timeline against the rig: the load loops, a snapshot at
// every phase boundary, and (serving) a 10 ms sampler of the queues.
func (r *rig) run(tl *timeline, mem bool) (samples []sample, bounds []counters, ticks []tick) {
	r.tl = tl
	var dues, postDues []time.Duration
	if r.sp.readRate > 0 {
		dues = poissonDues(r.seed, seedArrivals, r.sp.readRate, tl.total())
	}
	if r.sp.postRate > 0 {
		postDues = poissonDues(r.seed, seedIngest, r.sp.postRate, tl.total())
	}
	bounds = make([]counters, len(tl.bounds)+1)
	stop := make(chan struct{})
	var side, load sync.WaitGroup

	tl.start = time.Now()
	bounds[0] = r.snapshot(mem)
	side.Add(1)
	go func() {
		defer side.Done()
		for i, b := range tl.bounds {
			time.Sleep(b - tl.now())
			bounds[i+1] = r.snapshot(mem)
		}
	}()
	if r.entry != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			every(10*time.Millisecond, stop, func() {
				t := tick{at: tl.now(), queueLen: r.entry.Coal.QueueLen()}
				if r.entry.Dyn != nil {
					st := r.entry.Dyn.Stats()
					t.deltaArcs, t.pinned = st.DeltaArcs, st.PinnedNow
				}
				ticks = append(ticks, t)
			})
		}()
	}

	var reads, writes []sample
	load.Add(1)
	go func() {
		defer load.Done()
		if r.sp.callers > 0 {
			reads = closedLoop(tl, r.sp.callers, r.readOp())
		} else {
			reads = openLoop(tl, dues, false, r.readOp())
		}
	}()
	if len(postDues) > 0 {
		load.Add(1)
		go func() {
			defer load.Done()
			writes = openLoop(tl, postDues, true, r.servePost)
		}()
	}
	load.Wait()
	close(stop)
	side.Wait()
	return append(reads, writes...), bounds, ticks
}
