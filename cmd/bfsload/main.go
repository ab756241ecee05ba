// Command bfsload drives a bfsd instance with N concurrent closed-loop
// clients and reports latency percentiles, throughput, and the achieved
// batch width — the number the coalescer exists to maximize. Comparing a
// run against `-maxbatch 1` (per-request serving) on the same graph
// measures the amortization win of batching directly.
//
// Usage:
//
//	bfsload -addr http://localhost:8080 -clients 64 -requests 5000
//	bfsload -inprocess kron:scale=12 -clients 128 -requests 2000 -kind closeness
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "bfsd base URL (e.g. http://localhost:8080)")
		inprocess = flag.String("inprocess", "", "serve this graph spec in-process instead of -addr (e.g. kron:scale=12)")
		graph     = flag.String("graphname", "", "graph name to query (empty: server default)")
		clients   = flag.Int("clients", 64, "concurrent closed-loop clients")
		requests  = flag.Int("requests", 2000, "total requests across all clients")
		kind      = flag.String("kind", "mixed", "query kind: bfs, closeness, reachability, khop, mixed")
		seed      = flag.Int64("seed", 1, "workload seed")
		slowest   = flag.Int("slowest", 5, "report the trace ids of the N slowest successful requests (0: off; look them up in /debug/flightrecorder)")
		// In-process server knobs (ignored with -addr).
		workers  = flag.Int("workers", runtime.NumCPU(), "in-process server: traversal workers")
		maxBatch = flag.Int("maxbatch", 64, "in-process server: widest batch in sources (1: no coalescing)")
	)
	flag.Parse()

	base := *addr
	if *inprocess != "" {
		cfg := server.Config{
			Workers:    *workers,
			MaxBatch:   *maxBatch,
			MaxPending: *requests + *clients, // the load is the bound
		}
		reg := server.NewRegistry()
		g, err := reg.BuildGraph("load", *inprocess)
		if err == nil {
			_, err = reg.Add("load", g, true, cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfsload:", err)
			os.Exit(1)
		}
		srv := server.New(reg, cfg)
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			srv.Close()
		}()
		base = ts.URL
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "bfsload: pass -addr or -inprocess")
		os.Exit(1)
	}

	rep, err := drive(base, driveConfig{
		Graph:    *graph,
		Clients:  *clients,
		Requests: *requests,
		Kind:     *kind,
		Seed:     *seed,
		Slowest:  *slowest,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfsload:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

type driveConfig struct {
	Graph    string
	Clients  int
	Requests int
	Kind     string
	Seed     int64
	Slowest  int
}

// slowReq is one entry of the slowest-N leaderboard: enough to find the
// request again in the server's flight recorder (/debug/flightrecorder) or a
// captured trace by its trace id.
type slowReq struct {
	Lat     time.Duration
	TraceID uint64
	Kind    string
	Source  int
	Width   int
}

// report aggregates one load run.
type report struct {
	Sent, OK, Throttled, Failed int
	// StatusCounts breaks down every failed or throttled request by HTTP
	// status code; transport errors (no response at all) count under
	// status 0.
	StatusCounts map[int]int
	// RetryAfter counts throttled responses that carried a Retry-After
	// header — under sustained overload it should equal Throttled.
	RetryAfter int
	Elapsed    time.Duration
	Latency    metrics.Histogram // ns, successful requests
	Width      metrics.Histogram // batch width per successful request
	WaitMicros metrics.Histogram
	// Slowest holds the N slowest successful requests, slowest first.
	Slowest []slowReq
}

// MeanBatchWidth is the achieved coalescing factor as observed by clients:
// the average width of the batch that served each successful request.
func (r *report) MeanBatchWidth() float64 {
	if r.Latency.Count() == 0 {
		return 0
	}
	return r.Width.Mean()
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "requests: %d ok, %d throttled (429), %d failed in %v (%.0f req/s)\n",
		r.OK, r.Throttled, r.Failed, r.Elapsed.Round(time.Millisecond),
		float64(r.OK)/r.Elapsed.Seconds())
	if len(r.StatusCounts) > 0 {
		codes := make([]int, 0, len(r.StatusCounts))
		for code := range r.StatusCounts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		fmt.Fprintf(w, "errors:   ")
		for i, code := range codes {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			label := fmt.Sprintf("%d %s", code, http.StatusText(code))
			if code == 0 {
				label = "transport error"
			}
			fmt.Fprintf(w, "%s x%d", label, r.StatusCounts[code])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "retry-after: %d of %d throttled responses carried the header\n",
			r.RetryAfter, r.Throttled)
	}
	fmt.Fprintf(w, "latency:  %s\n", r.Latency.DurationString())
	fmt.Fprintf(w, "queue wait (server-reported): p50=%dus p95=%dus\n",
		r.WaitMicros.P50(), r.WaitMicros.P95())
	fmt.Fprintf(w, "batch width: mean=%.1f p50=%d max=%d  (1.0 = no coalescing)\n",
		r.MeanBatchWidth(), r.Width.P50(), r.Width.Max())
	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "slowest %d requests (find them in /debug/flightrecorder by trace_id):\n", len(r.Slowest))
		for _, s := range r.Slowest {
			fmt.Fprintf(w, "  %9v  trace_id=%d  kind=%s source=%d width=%d\n",
				s.Lat.Round(time.Microsecond), s.TraceID, s.Kind, s.Source, s.Width)
		}
	}
}

// recordSlow inserts s into the slowest-first leaderboard, keeping at most
// limit entries. Caller holds the report mutex.
func (r *report) recordSlow(s slowReq, limit int) {
	if limit <= 0 {
		return
	}
	i := sort.Search(len(r.Slowest), func(i int) bool { return r.Slowest[i].Lat < s.Lat })
	if i >= limit {
		return
	}
	r.Slowest = append(r.Slowest, slowReq{})
	copy(r.Slowest[i+1:], r.Slowest[i:])
	r.Slowest[i] = s
	if len(r.Slowest) > limit {
		r.Slowest = r.Slowest[:limit]
	}
}

// graphSize asks the server how many vertices the target graph has, so the
// workload can pick valid sources.
func graphSize(base, name string) (int, error) {
	resp, err := http.Get(base + "/graphs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var infos []struct {
		Name     string `json:"name"`
		Vertices int    `json:"vertices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, err
	}
	for _, inf := range infos {
		if inf.Name == name || name == "" {
			return inf.Vertices, nil
		}
	}
	return 0, fmt.Errorf("graph %q not served (have %d graphs)", name, len(infos))
}

// drive runs the closed-loop workload: Clients goroutines, each issuing the
// next request as soon as its previous one completes, Requests in total.
func drive(base string, cfg driveConfig) (*report, error) {
	n, err := graphSize(base, cfg.Graph)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("graph %q is empty", cfg.Graph)
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}

	kinds := []string{"bfs", "closeness", "reachability", "khop"}
	switch cfg.Kind {
	case "mixed", "":
	case "bfs", "closeness", "reachability", "khop":
		kinds = []string{cfg.Kind}
	default:
		return nil, fmt.Errorf("unknown kind %q", cfg.Kind)
	}

	rep := &report{StatusCounts: map[int]int{}}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards the plain counters; histograms are atomic
		next = make(chan int, cfg.Requests)
	)
	for i := 0; i < cfg.Requests; i++ {
		next <- i
	}
	close(next)

	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for range next {
				kind := kinds[r.Intn(len(kinds))]
				body := map[string]any{"graph": cfg.Graph, "source": r.Intn(n)}
				switch kind {
				case "bfs":
					body["targets"] = []int{r.Intn(n), r.Intn(n)}
				case "reachability":
					body["target"] = r.Intn(n)
				case "khop":
					body["hops"] = 1 + r.Intn(3)
				}
				t0 := time.Now()
				status, resp, retryAfter, err := post(client, base+"/"+kind, body)
				lat := time.Since(t0)
				mu.Lock()
				rep.Sent++
				switch {
				case err != nil:
					rep.Failed++
					rep.StatusCounts[status]++ // 0 for transport errors
				case status == http.StatusTooManyRequests:
					rep.Throttled++
					rep.StatusCounts[status]++
					if retryAfter {
						rep.RetryAfter++
					}
				case status != http.StatusOK:
					rep.Failed++
					rep.StatusCounts[status]++
				default:
					rep.OK++
				}
				if err == nil && status == http.StatusOK {
					rep.recordSlow(slowReq{
						Lat:     lat,
						TraceID: resp.TraceID,
						Kind:    kind,
						Source:  body["source"].(int),
						Width:   resp.BatchWidth,
					}, cfg.Slowest)
				}
				mu.Unlock()
				if err == nil && status == http.StatusOK {
					rep.Latency.RecordDuration(lat)
					rep.Width.Record(int64(resp.BatchWidth))
					rep.WaitMicros.Record(resp.WaitMicros)
				}
			}
		}(cfg.Seed + int64(c))
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

type queryResponse struct {
	BatchWidth int    `json:"batch_width"`
	WaitMicros int64  `json:"wait_us"`
	TraceID    uint64 `json:"trace_id"`
}

// post issues one query. retryAfter reports whether the response carried a
// Retry-After header (the 429 backoff hint). Transport errors return
// status 0.
func post(client *http.Client, url string, body map[string]any) (status int, qr *queryResponse, retryAfter bool, err error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, false, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	retryAfter = resp.Header.Get("Retry-After") != ""
	qr = &queryResponse{}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(qr); err != nil {
			return resp.StatusCode, nil, retryAfter, err
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, qr, retryAfter, nil
}
