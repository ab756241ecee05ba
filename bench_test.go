package msbfs

// One testing.B benchmark per table/figure of the paper's evaluation, plus
// micro-benchmarks for the ablations. Each figure benchmark drives the same
// runner as `bfsbench -exp <id>` in quick mode and reports a figure-specific
// headline metric; run `bfsbench` for the full paper-format reports.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig11Scaling -benchtime=3x

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/metrics"
)

func benchCfg() bench.Config {
	return bench.Config{Quick: true, Workers: runtime.NumCPU(), Seed: 1}
}

// benchGraph returns a striped scale-14 Kronecker graph shared by the
// micro-benchmarks.
var benchGraphCache *struct {
	g  *graphHandle
	ec *metrics.EdgeCounter
}

type graphHandle = Graph

func benchGraph(b *testing.B) (*Graph, *metrics.EdgeCounter) {
	b.Helper()
	if benchGraphCache == nil {
		g := GenerateKronecker(14, 16, 1)
		g, _ = g.Relabel(LabelStriped, runtime.NumCPU(), 512, 1)
		benchGraphCache = &struct {
			g  *graphHandle
			ec *metrics.EdgeCounter
		}{g: g, ec: metrics.NewEdgeCounter(g.g)}
	}
	return benchGraphCache.g, benchGraphCache.ec
}

func reportGTEPS(b *testing.B, edges int64) {
	b.Helper()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(edges)*float64(b.N)/secs/1e9, "GTEPS")
	}
}

// BenchmarkFig2Utilization regenerates the utilization comparison.
func BenchmarkFig2Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Memory regenerates the memory-overhead model.
func BenchmarkFig3Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Partitioning regenerates the static-partitioning skew data.
func BenchmarkFig6Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7IterationLoad regenerates the per-iteration load matrix.
func BenchmarkFig7IterationLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Labeling regenerates the labeling runtime comparison (the
// skew series of Figure 9 comes from the same runs).
func BenchmarkFig8Labeling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Sequential regenerates the single-threaded comparison.
func BenchmarkFig10Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Scaling regenerates the thread-scaling comparison.
func BenchmarkFig11Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12GraphSize regenerates the graph-size sweep.
func BenchmarkFig12GraphSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig12(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the full graph-suite table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIBFSComparison regenerates the Section 5.3 KG0 comparison.
func BenchmarkIBFSComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.IBFSCompare(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- algorithm micro-benchmarks -----------------------------------------

// BenchmarkMSPBFS64Sources is the paper's core workload: one 64-source
// batch at full parallelism.
func BenchmarkMSPBFS64Sources(b *testing.B) {
	g, ec := benchGraph(b)
	sources := g.RandomSources(64, 2)
	opt := core.Options{Workers: runtime.NumCPU()}
	e := core.NewMSPBFSEngine(g.g, opt)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(sources, nil)
	}
	b.StopTimer()
	reportGTEPS(b, ec.EdgesForAll(sources))
}

// BenchmarkMSBFSSequential64 is the sequential baseline on the same batch.
func BenchmarkMSBFSSequential64(b *testing.B) {
	g, ec := benchGraph(b)
	sources := g.RandomSources(64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MSBFS(g.g, sources, core.Options{})
	}
	b.StopTimer()
	reportGTEPS(b, ec.EdgesForAll(sources))
}

// BenchmarkSMSPBFS benchmarks the parallel single-source BFS, bit and byte.
func BenchmarkSMSPBFS(b *testing.B) {
	g, ec := benchGraph(b)
	src := g.RandomSources(1, 3)[0]
	for _, repr := range []core.StateRepr{core.BitState, core.ByteState} {
		b.Run(repr.String(), func(b *testing.B) {
			e := core.NewSMSPBFSEngine(g.g, repr, core.Options{Workers: runtime.NumCPU()})
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(src)
			}
			b.StopTimer()
			reportGTEPS(b, ec.EdgesFor(src))
		})
	}
}

// BenchmarkBeamer benchmarks the three sequential Beamer variants.
func BenchmarkBeamer(b *testing.B) {
	g, ec := benchGraph(b)
	src := g.RandomSources(1, 3)[0]
	for _, v := range []core.BeamerVariant{core.BeamerGAPBS, core.BeamerSparse, core.BeamerDense} {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Beamer(g.g, src, v, core.Options{})
			}
			b.StopTimer()
			reportGTEPS(b, ec.EdgesFor(src))
		})
	}
}

// --- ablation benchmarks -------------------------------------------------

// BenchmarkAblationEarlyExit isolates the bottom-up early-exit optimization.
func BenchmarkAblationEarlyExit(b *testing.B) {
	g, _ := benchGraph(b)
	sources := g.RandomSources(64, 4)
	for _, c := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Options{Workers: runtime.NumCPU(), Direction: core.BottomUpOnly, DisableEarlyExit: c.disable}
			e := core.NewMSPBFSEngine(g.g, opt)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(sources, nil)
			}
		})
	}
}

// BenchmarkAblationDirection compares the direction policies.
func BenchmarkAblationDirection(b *testing.B) {
	g, _ := benchGraph(b)
	sources := g.RandomSources(64, 4)
	for _, c := range []struct {
		name string
		dir  core.Direction
	}{{"heuristic", core.Auto}, {"top-down", core.TopDownOnly}, {"bottom-up", core.BottomUpOnly}} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Options{Workers: runtime.NumCPU(), Direction: c.dir}
			e := core.NewMSPBFSEngine(g.g, opt)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(sources, nil)
			}
		})
	}
}

// BenchmarkAblationSplitSize compares task range sizes (Section 4.2.1).
func BenchmarkAblationSplitSize(b *testing.B) {
	g, _ := benchGraph(b)
	sources := g.RandomSources(64, 4)
	for _, split := range []int{512, 2048, 8192} {
		b.Run(string(rune('0'+split/512))+"x512", func(b *testing.B) {
			opt := core.Options{Workers: runtime.NumCPU(), SplitSize: split}
			e := core.NewMSPBFSEngine(g.g, opt)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(sources, nil)
			}
		})
	}
}

// BenchmarkAblationStealing compares work stealing vs static partitioning
// on the skew-prone degree-ordered labeling.
func BenchmarkAblationStealing(b *testing.B) {
	base := gen.Kronecker(gen.Graph500Params(14, 1))
	g, _ := label.Apply(base, label.DegreeOrdered, label.Params{})
	sources := core.RandomSources(g, 64, 4)
	for _, c := range []struct {
		name    string
		disable bool
	}{{"stealing", false}, {"static", true}} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Options{Workers: runtime.NumCPU(), DisableStealing: c.disable}
			e := core.NewMSPBFSEngine(g, opt)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(sources, nil)
			}
		})
	}
}

// BenchmarkAblationBatchWidth compares multi-source bitset widths (64 to
// 512 concurrent BFSs), the trade-off discussed at the end of Section 2.2.
func BenchmarkAblationBatchWidth(b *testing.B) {
	g, ec := benchGraph(b)
	sources := g.RandomSources(512, 4)
	for _, words := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+words))+"words", func(b *testing.B) {
			opt := core.Options{Workers: runtime.NumCPU(), BatchWords: words}
			e := core.NewMSPBFSEngine(g.g, opt)
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(sources, nil)
			}
			b.StopTimer()
			reportGTEPS(b, ec.EdgesForAll(sources))
		})
	}
}

// --- analytics benchmarks ------------------------------------------------

// BenchmarkCloseness measures the shared-traversal closeness workload.
func BenchmarkCloseness(b *testing.B) {
	g, _ := benchGraph(b)
	vertices := g.RandomSources(64, 5)
	opt := Options{Workers: runtime.NumCPU()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closeness(vertices, opt)
	}
}

// BenchmarkBetweenness measures the per-source Brandes workload.
func BenchmarkBetweenness(b *testing.B) {
	g, _ := benchGraph(b)
	sources := g.RandomSources(16, 5)
	opt := Options{Workers: runtime.NumCPU()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Betweenness(sources, opt)
	}
}

// BenchmarkShortestPath measures bidirectional point-to-point queries.
func BenchmarkShortestPath(b *testing.B) {
	g, _ := benchGraph(b)
	pairs := g.RandomSources(64, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(pairs[i%32], pairs[63-i%32])
	}
}

// BenchmarkDeriveParents measures BFS-tree construction from levels.
func BenchmarkDeriveParents(b *testing.B) {
	g, _ := benchGraph(b)
	src := g.RandomSources(1, 7)[0]
	levels := g.BFS(src, Options{Workers: runtime.NumCPU(), RecordLevels: true}).Levels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DeriveParents(g.g, levels, nil)
	}
}

// BenchmarkGraphConstruction times the generator path: R-MAT draws, the
// id scramble and the one sort-free CSR build.
func BenchmarkGraphConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateKronecker(13, 16, uint64(i+1))
	}
}
