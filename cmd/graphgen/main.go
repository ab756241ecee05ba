// Command graphgen builds the graph a spec names (a generator or a file;
// see internal/gen.Spec) and writes it in the library's binary format or
// as an edge list, optionally applying a vertex labeling.
//
// Usage:
//
//	graphgen -graph kron:scale=20 -out kron20.bin
//	graphgen -graph social:n=100000 -label striped -workers 8 -out ldbc.bin
//	graphgen -graph powerlaw:n=500000 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

func main() {
	var (
		spec     = flag.String("graph", "kron:scale=16", "graph spec: kron:scale=S, uniform:n=N, social:n=N, powerlaw:n=N, web:n=N, collab:n=N or file:PATH (see docs/SERVER.md)")
		seed     = flag.Uint64("seed", 42, "random labeling seed")
		labeling = flag.String("label", "", "relabel before saving: random, ordered, striped")
		workers  = flag.Int("workers", 8, "worker count for striped labeling")
		out      = flag.String("out", "", "output file (omit to skip writing)")
		format   = flag.String("format", "binary", "output format: binary or edgelist")
		stats    = flag.Bool("stats", false, "print graph statistics")
	)
	flag.Parse()

	g, err := gen.Build(*spec)
	exitOn(err)

	if *labeling != "" {
		scheme, err := label.ParseScheme(*labeling)
		exitOn(err)
		g, _ = label.Apply(g, scheme, label.Params{Workers: *workers, Seed: *seed})
	}

	if *stats {
		printStats(g)
	}
	if *out != "" {
		exitOn(write(*out, *format, g))
		fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, g.NumVertices(), g.NumEdges())
	}
	if !*stats && *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: nothing to do (pass -out and/or -stats)")
		os.Exit(1)
	}
}

// exitOn ends the run with err, if there is one.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func write(path, format string, g *graph.Graph) error {
	switch format {
	case "binary":
		return graph.SaveFile(path, g)
	case "edgelist":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := graph.SaveEdgeList(f, g); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	default:
		return fmt.Errorf("unknown format %q (binary, edgelist)", format)
	}
}

func printStats(g *graph.Graph) {
	st := gen.Analyze(g)
	fmt.Printf("vertices:          %d\n", st.Vertices)
	fmt.Printf("edges:             %d\n", st.Edges)
	fmt.Printf("avg degree:        %.2f\n", st.AvgDegree)
	fmt.Printf("max degree:        %d\n", st.MaxDegree)
	fmt.Printf("degree Gini:       %.3f\n", st.GiniDegree)
	if st.PowerLawAlpha > 0 {
		fmt.Printf("power-law alpha:   %.2f (xmin %d)\n", st.PowerLawAlpha, st.PowerLawXMin)
	}
	fmt.Printf("largest component: %.1f%% of vertices\n", 100*st.LargestComponentFrac)
	fmt.Printf("clustering (est.): %.3f\n", st.ClusteringSample)
	fmt.Printf("memory:            %.1f MB\n", float64(g.MemoryBytes())/(1<<20))
}
