package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// Table1Row mirrors one row of the paper's Table 1.
type Table1Row struct {
	Name     string
	Vertices int
	Edges    int64
	// MemoryMB is the modeled graph size (32-bit ids, 8 bytes per edge).
	MemoryMB float64
	// MSPBFSPer64 is the MS-PBFS runtime for one 64-source batch.
	MSPBFSPer64 time.Duration
	// GTEPS columns, as in the paper.
	MSPBFS    float64
	MSBFS     float64 // one instance per core, enough sources
	MSBFS64   float64 // sequential MS-BFS limited to 64 sources
	SMSPBFS   float64 // best of bit/byte
	SMSRepr   string  // which representation won
	IBFSGteps float64 // extra column: our iBFS-style comparator
}

// Table1Result is the data behind Table 1.
type Table1Result struct {
	Workers int
	Rows    []Table1Row
}

// table1Suite builds the scaled-down graph suite standing in for the
// paper's Table 1 graphs (see DESIGN.md §3 for the substitutions).
func table1Suite(cfg Config) []struct {
	name string
	g    *graph.Graph
} {
	seed := cfg.seed()
	small, large := 14, 16
	ldbcSmall, ldbcLarge := 30000, 120000
	hollyN, webN, twitterN := 30000, 80000, 80000
	kg0Scale, kg0Deg := 12, 64
	if cfg.Quick {
		small, large = 10, 12
		ldbcSmall, ldbcLarge = 3000, 8000
		hollyN, webN, twitterN = 3000, 6000, 6000
		kg0Scale, kg0Deg = 9, 32
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{fmt.Sprintf("Kronecker %d", small), cachedGraph(key("t1-kron", small, int(seed)), func() *graph.Graph {
			return gen.Kronecker(gen.Graph500Params(small, seed))
		})},
		{fmt.Sprintf("Kronecker %d", large), cachedGraph(key("t1-kron", large, int(seed)), func() *graph.Graph {
			return gen.Kronecker(gen.Graph500Params(large, seed))
		})},
		{"KG0", cachedGraph(key("t1-kg0", kg0Scale, kg0Deg, int(seed)), func() *graph.Graph {
			return gen.Kronecker(gen.KroneckerParams{Scale: kg0Scale, EdgeFactor: kg0Deg, Seed: seed + 1})
		})},
		{"LDBC (small)", cachedGraph(key("t1-ldbc", ldbcSmall, int(seed)), func() *graph.Graph {
			return gen.LDBC(ldbcSmall, 5, seed+2)
		})},
		{"LDBC (large)", cachedGraph(key("t1-ldbc", ldbcLarge, int(seed)), func() *graph.Graph {
			return gen.LDBC(ldbcLarge, 5, seed+3)
		})},
		{"Hollywood-like", cachedGraph(key("t1-holly", hollyN, int(seed)), func() *graph.Graph {
			return gen.Collaboration(hollyN, 56, seed+4)
		})},
		{"UK-like web", cachedGraph(key("t1-web", webN, int(seed)), func() *graph.Graph {
			return gen.Web(webN, 20, seed+5)
		})},
		{"Twitter-like", cachedGraph(key("t1-twitter", twitterN, int(seed)), func() *graph.Graph {
			return gen.PowerLaw(twitterN, seed+6)
		})},
	}
}

// Table1 measures the per-algorithm GTEPS across the graph suite.
func Table1(cfg Config) (Table1Result, error) {
	workers := cfg.workers()
	res := Table1Result{Workers: workers}
	for _, entry := range table1Suite(cfg) {
		g, _ := label.Apply(entry.g, label.Striped,
			label.Params{Workers: workers, Seed: cfg.seed()})
		ec := metrics.NewEdgeCounter(g)
		row := Table1Row{
			Name:     entry.name,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			MemoryMB: float64(g.NumEdges()*8+int64(g.NumVertices()+1)*8) / (1 << 20),
		}
		opt := core.Options{Workers: workers}
		batch := core.RandomSources(g, 64, cfg.seed()+11)

		ms := core.MSPBFS(g, batch, opt)
		row.MSPBFSPer64 = ms.Stats.Elapsed
		row.MSPBFS = gtepsOf(ec, batch, ms.Stats.Elapsed)

		manySources := core.RandomSources(g, 64*workers*2, cfg.seed()+12)
		seqPar := core.MSBFSPerCore(g, manySources, opt)
		row.MSBFS = gtepsOf(ec, manySources, seqPar.Stats.Elapsed)

		seq64 := core.MSBFS(g, batch, core.Options{})
		row.MSBFS64 = gtepsOf(ec, batch, seq64.Stats.Elapsed)

		smsSources := batch[:4]
		bit := core.SMSPBFSAll(g, smsSources, core.BitState, opt)
		byteR := core.SMSPBFSAll(g, smsSources, core.ByteState, opt)
		bitG := gtepsOf(ec, smsSources, bit.Stats.Elapsed)
		byteG := gtepsOf(ec, smsSources, byteR.Stats.Elapsed)
		if bitG >= byteG {
			row.SMSPBFS, row.SMSRepr = bitG, "bit"
		} else {
			row.SMSPBFS, row.SMSRepr = byteG, "byte"
		}

		ib := core.IBFS(g, batch, opt)
		row.IBFSGteps = gtepsOf(ec, batch, ib.Stats.Elapsed)

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runTable1(cfg Config) ([][]string, error) {
	res, err := Table1(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Table 1: graph suite and algorithm performance in GTEPS (%d workers)\n", res.Workers)
	fmt.Fprintf(w, "%-15s %10s %12s %9s %12s %9s %9s %9s %12s %8s\n",
		"graph", "nodes", "edges", "mem MB", "MS-PBFS/64", "MS-PBFS", "MS-BFS", "MS-BFS64", "SMS-PBFS", "iBFS")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-15s %10d %12d %9.1f %12v %9.3f %9.3f %9.3f %7.3f (%s) %8.3f\n",
			r.Name, r.Vertices, r.Edges, r.MemoryMB,
			r.MSPBFSPer64.Round(time.Millisecond),
			r.MSPBFS, r.MSBFS, r.MSBFS64, r.SMSPBFS, r.SMSRepr, r.IBFSGteps)
	}
	fmt.Fprintf(w, "paper: MS-PBFS wins on every graph; MS-BFS limited to 64 sources collapses (one core);\n")
	fmt.Fprintf(w, "       the web graph is the hardest (lowest GTEPS), the dense KG0 the easiest.\n")
	return res.csv(), nil
}

// IBFSResult is the KG0 comparison of Section 5.3.
type IBFSResult struct {
	Workers                int
	MSPBFSGteps, IBFSGteps float64
	MSPBFSMs, IBFSMs       float64
	SpeedupMSPBFSOverIBFS  float64
}

// IBFSCompare runs MS-PBFS and the iBFS-style JFQ variant on the dense
// KG0-like graph where iBFS reported its best numbers.
func IBFSCompare(cfg Config) (IBFSResult, error) {
	workers := cfg.workers()
	scale, deg := 12, 64
	if cfg.Quick {
		scale, deg = 9, 32
	}
	g0 := cachedGraph(key("t1-kg0", scale, deg, int(cfg.seed())), func() *graph.Graph {
		return gen.Kronecker(gen.KroneckerParams{Scale: scale, EdgeFactor: deg, Seed: cfg.seed() + 1})
	})
	g, _ := label.Apply(g0, label.Striped, label.Params{Workers: workers})
	ec := metrics.NewEdgeCounter(g)
	sources := core.RandomSources(g, 64, cfg.seed()+21)
	opt := core.Options{Workers: workers}

	ms := core.MSPBFS(g, sources, opt)
	ib := core.IBFS(g, sources, opt)
	res := IBFSResult{
		Workers:     workers,
		MSPBFSGteps: gtepsOf(ec, sources, ms.Stats.Elapsed),
		IBFSGteps:   gtepsOf(ec, sources, ib.Stats.Elapsed),
		MSPBFSMs:    float64(ms.Stats.Elapsed) / float64(time.Millisecond),
		IBFSMs:      float64(ib.Stats.Elapsed) / float64(time.Millisecond),
	}
	if res.IBFSGteps > 0 {
		res.SpeedupMSPBFSOverIBFS = res.MSPBFSGteps / res.IBFSGteps
	}
	return res, nil
}

func runIBFS(cfg Config) ([][]string, error) {
	res, err := IBFSCompare(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Section 5.3: MS-PBFS vs iBFS-style JFQ on the dense KG0-like graph (%d workers, 64 sources)\n", res.Workers)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "algorithm", "elapsed ms", "GTEPS")
	fmt.Fprintf(w, "%-12s %12.2f %12.3f\n", "MS-PBFS", res.MSPBFSMs, res.MSPBFSGteps)
	fmt.Fprintf(w, "%-12s %12.2f %12.3f\n", "iBFS (JFQ)", res.IBFSMs, res.IBFSGteps)
	fmt.Fprintf(w, "MS-PBFS / iBFS = %.2fx (paper: 1860 vs 397 GTEPS on the CPU adaptation, ~4.7x)\n",
		res.SpeedupMSPBFSOverIBFS)
	return nil, nil
}
