// Command centrality computes closeness (and optionally betweenness)
// centrality for a graph using the multi-source BFS engine — the
// whole-graph analytical workload the paper's introduction motivates. With
// 512-wide batches (-batchwords 8), one machine pass computes 512
// centralities concurrently.
//
// Usage:
//
//	centrality -scale 18 -top 20
//	centrality -graph social.bin -all -out closeness.csv
//	centrality -scale 16 -betweenness -sample 512
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file (binary); empty generates a Kronecker graph")
		scale       = flag.Int("scale", 14, "Kronecker scale when generating")
		workers     = flag.Int("workers", runtime.NumCPU(), "worker threads")
		batchWords  = flag.Int("batchwords", 8, "bitset width in 64-bit words (8 = 512 BFSs per batch)")
		all         = flag.Bool("all", false, "compute closeness for every vertex (full APSP)")
		sample      = flag.Int("sample", 1024, "number of vertices when not -all")
		top         = flag.Int("top", 10, "print the top-K ranking")
		betweenness = flag.Bool("betweenness", false, "also compute sampled betweenness (Brandes)")
		out         = flag.String("out", "", "write per-vertex scores as CSV")
		seed        = flag.Uint64("seed", 3, "seed for generation and sampling")
	)
	flag.Parse()

	g, err := load(*graphPath, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "centrality:", err)
		os.Exit(1)
	}
	g, perm := label.Apply(g, label.Striped, label.Params{Workers: *workers, TaskSize: 512, Seed: *seed})
	inv := graph.InversePermutation(perm)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	var vertices []int
	if *all {
		vertices = make([]int, g.NumVertices())
		for i := range vertices {
			vertices[i] = i
		}
	} else {
		vertices = core.RandomSources(g, *sample, *seed+1)
	}

	start := time.Now()
	closeness := computeCloseness(g, vertices, *workers, *batchWords)
	fmt.Printf("closeness: %d vertices in %v (%.2f ms/vertex)\n",
		len(vertices), time.Since(start).Round(time.Millisecond),
		float64(time.Since(start).Milliseconds())/float64(len(vertices)))

	printTop(*top, "closeness", vertices, closeness, inv)

	var between []float64
	if *betweenness {
		start = time.Now()
		between = computeBetweenness(g, vertices, *workers)
		fmt.Printf("betweenness: sampled over %d sources in %v\n",
			len(vertices), time.Since(start).Round(time.Millisecond))
		all := make([]int, g.NumVertices())
		for i := range all {
			all[i] = i
		}
		printTop(*top, "betweenness", all, between, inv)
	}

	if *out != "" {
		if err := writeCSV(*out, vertices, closeness, between, inv); err != nil {
			fmt.Fprintln(os.Stderr, "centrality:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}

func load(path string, scale int, seed uint64) (*graph.Graph, error) {
	if path != "" {
		return graph.LoadFile(path)
	}
	return gen.Kronecker(gen.Graph500Params(scale, seed)), nil
}

// computeCloseness accumulates distance sums per source through the
// MS-PBFS visitor, batch after batch.
func computeCloseness(g *graph.Graph, vertices []int, workers, batchWords int) []float64 {
	n := g.NumVertices()
	type acc struct {
		sum     []int64
		reached []int64
	}
	accs := make([]acc, workers)
	for w := range accs {
		accs[w] = acc{sum: make([]int64, len(vertices)), reached: make([]int64, len(vertices))}
	}
	opt := core.Options{
		Workers:    workers,
		BatchWords: batchWords,
		OnVisit: func(workerID, sourceIdx, _ int, depth int) {
			a := &accs[workerID]
			a.sum[sourceIdx] += int64(depth)
			a.reached[sourceIdx]++
		},
	}
	core.MSPBFS(g, vertices, opt)

	out := make([]float64, len(vertices))
	for i := range vertices {
		var sum, reached int64
		for w := range accs {
			sum += accs[w].sum[i]
			reached += accs[w].reached[i]
		}
		if reached <= 1 || sum == 0 {
			continue
		}
		r := float64(reached - 1)
		out[i] = r / float64(sum) * r / float64(n-1)
	}
	return out
}

// computeBetweenness runs Brandes over the sampled sources in parallel and
// returns per-vertex scores.
func computeBetweenness(g *graph.Graph, sources []int, workers int) []float64 {
	return core.BrandesBetweenness(g, sources, core.Options{Workers: workers})
}

func printTop(k int, name string, vertices []int, scores []float64, inv []graph.VertexID) {
	type entry struct {
		v     int
		score float64
	}
	entries := make([]entry, len(vertices))
	for i, v := range vertices {
		entries[i] = entry{v: v, score: scores[i]}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].score > entries[j].score })
	if k > len(entries) {
		k = len(entries)
	}
	fmt.Printf("top %d by %s (original vertex ids):\n", k, name)
	for i := 0; i < k; i++ {
		fmt.Printf("  %2d. vertex %-10d %.6f\n", i+1, inv[entries[i].v], entries[i].score)
	}
}

func writeCSV(path string, vertices []int, closeness, betweenness []float64, inv []graph.VertexID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	header := []string{"vertex", "closeness"}
	if betweenness != nil {
		header = append(header, "betweenness")
	}
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for i, v := range vertices {
		row := []string{
			strconv.FormatUint(uint64(inv[v]), 10),
			strconv.FormatFloat(closeness[i], 'f', 6, 64),
		}
		if betweenness != nil {
			row = append(row, strconv.FormatFloat(betweenness[v], 'f', 6, 64))
		}
		if err := w.Write(row); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
