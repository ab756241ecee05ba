package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"

	msbfs "repro"
)

// Every input the program under test sees is derived here from -seed: the
// graph, the sources, the query mix, the arrival gaps and the ingested
// edges. The same seed gives byte-identical inputs (schedule_test.go).

const (
	graphName = "g"
	poolSize  = 512 // distinct queries (serving) or sources (offline-single)
	batchSize = 64  // sources per offline-multi op
	bfsTarget = 4   // distance targets per bfs query
	postEdges = 64  // edges per ingest POST
)

// Seed offsets keep the derived streams independent of each other.
const (
	seedSources = 1 + iota
	seedMix
	seedArrivals
	seedIngest
)

func rng(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*8 + uint64(stream))))
}

// query is one read request of the pool, in the external ids a client of
// the daemon uses.
type query struct {
	kind    string // "bfs", "closeness", "reachability", "khop"
	source  int
	targets []int // bfs: distance targets; reachability: the one target
	hops    int
	body    []byte // the JSON body POSTed to /<kind>
}

var kinds = [4]string{"bfs", "closeness", "reachability", "khop"}

// buildPool draws the query pool: poolSize non-isolated sources (the
// Graph500 rule) and an exact 25 % share of each kind, shuffled.
func buildPool(g *msbfs.Graph, seed uint64) []query {
	sources := g.RandomSources(poolSize, seed*8+seedSources)
	r := rng(seed, seedMix)
	n := g.NumVertices()
	pool := make([]query, len(sources))
	for i, s := range sources {
		q := query{kind: kinds[i%len(kinds)], source: s}
		switch q.kind {
		case "bfs":
			for j := 0; j < bfsTarget; j++ {
				q.targets = append(q.targets, r.Intn(n))
			}
		case "reachability":
			q.targets = []int{r.Intn(n)}
		case "khop":
			q.hops = 1 + r.Intn(3)
		}
		pool[i] = q
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := range pool {
		pool[i].body = pool[i].encode()
	}
	return pool
}

func (q *query) encode() []byte {
	body := map[string]any{"graph": graphName, "source": q.source}
	switch q.kind {
	case "bfs":
		body["targets"] = q.targets
	case "reachability":
		body["target"] = q.targets[0]
	case "khop":
		body["hops"] = q.hops
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // a map of ints and strings always marshals
	}
	return b
}

// poissonDues draws the due times of an open-loop arrival process at rate
// per second over total: exponential gaps, so arrivals bunch as
// independent users' do.
func poissonDues(seed uint64, stream int, rate float64, total time.Duration) []time.Duration {
	r := rng(seed, stream)
	var dues []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= total {
			return dues
		}
		dues = append(dues, due)
	}
}

// ingestPost is one POST /graphs/g/edges body with the edges it carries.
type ingestPost struct {
	edges [][2]uint32
	body  []byte
}

// buildIngest draws count posts of postEdges uniformly random edges each.
// Almost all are new to a Kronecker graph; the daemon drops the rest as
// duplicates, which the oracle's set semantics mirror.
func buildIngest(n int, seed uint64, count int) []ingestPost {
	r := rng(seed, seedIngest)
	posts := make([]ingestPost, count)
	for i := range posts {
		edges := make([][2]uint32, postEdges)
		for j := range edges {
			edges[j] = [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))}
		}
		b, err := json.Marshal(map[string]any{"edges": edges})
		if err != nil {
			panic(err)
		}
		posts[i] = ingestPost{edges: edges, body: b}
	}
	return posts
}

// closeness is the Wasserman-Faust value the daemon documents:
// (reached-1)/sum scaled by the share of the graph reached.
func closeness(n int, sum, reached int64) float64 {
	if reached <= 1 || sum == 0 || n <= 1 {
		return 0
	}
	r := float64(reached - 1)
	return r / float64(sum) * r / float64(n-1)
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
