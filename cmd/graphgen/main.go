// Command graphgen generates benchmark graphs and writes them to the
// library's binary format, optionally applying a vertex labeling.
//
// Usage:
//
//	graphgen -type kronecker -scale 20 -out kron20.bin
//	graphgen -type ldbc -n 100000 -label striped -workers 8 -out ldbc.bin
//	graphgen -type twitter -n 500000 -stats
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
		typ        = flag.String("type", "kronecker", "graph type: kronecker, kg0, ldbc, uniform, twitter, web, hollywood")
		scale      = flag.Int("scale", 16, "Kronecker scale (log2 vertices)")
		n          = flag.Int("n", 100000, "vertex count for non-Kronecker generators")
		edgeFactor = flag.Int("edgefactor", 16, "average edges per vertex")
		seed       = flag.Uint64("seed", 42, "generator seed")
		labeling   = flag.String("label", "", "relabel before saving: random, ordered, striped")
		workers    = flag.Int("workers", 8, "worker count for striped labeling")
		out        = flag.String("out", "", "output file (omit to skip writing)")
		format     = flag.String("format", "binary", "output format: binary or edgelist")
		stats      = flag.Bool("stats", false, "print graph statistics")
	)
	flag.Parse()

	g, err := generate(*typ, *scale, *n, *edgeFactor, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}

	if *labeling != "" {
		scheme, err := label.ParseScheme(*labeling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		g, _ = label.Apply(g, scheme, label.Params{Workers: *workers, Seed: *seed})
	}

	if *stats {
		printStats(g)
	}
	if *out != "" {
		if err := write(*out, *format, g); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen: writing:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, g.NumVertices(), g.NumEdges())
	}
	if !*stats && *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: nothing to do (pass -out and/or -stats)")
		os.Exit(1)
	}
}

func generate(typ string, scale, n, edgeFactor int, seed uint64) (*graph.Graph, error) {
	switch typ {
	case "kronecker", "kg0": // kg0 is the same generator at a high -edgefactor
		return gen.Kronecker(gen.KroneckerParams{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}), nil
	case "ldbc":
		return gen.LDBC(n, 5, seed), nil
	case "uniform":
		return gen.Uniform(n, edgeFactor, seed), nil
	case "twitter":
		return gen.PowerLaw(n, seed), nil
	case "web":
		return gen.Web(n, edgeFactor, seed), nil
	case "hollywood":
		return gen.Collaboration(n, edgeFactor, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph type %q", typ)
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
