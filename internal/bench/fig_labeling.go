package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/sched"
)

// labelingSchemes are the three vertex orders compared throughout
// Section 4/5.1, in the paper's presentation order.
var labelingSchemes = []label.Scheme{label.DegreeOrdered, label.Random, label.Striped}

// socialGraphFor returns the experiment's social network graph relabeled
// with the given scheme (Figures 6 and 7 use "a social network graph"),
// striped over the stripes of the given worker count.
func socialGraphFor(cfg Config, scheme label.Scheme, workers int) *graph.Graph {
	persons := 60000
	if cfg.Quick {
		persons = 8000
	}
	base := cachedGraph(key("ldbc", persons, int(cfg.seed())), func() *graph.Graph {
		return gen.LDBC(persons, 16, cfg.seed())
	})
	g, _ := label.Apply(base, scheme, label.Params{Workers: workers, Seed: cfg.seed()})
	return g
}

// Fig6Result maps labeling scheme name -> visited neighbors per worker
// during one single-source BFS under static partitioning.
type Fig6Result struct {
	Workers   int
	PerWorker map[string][]int64
}

// Fig6 reproduces the static-partitioning workload-skew visualization: the
// number of neighbors each of 8 statically partitioned workers visits
// during a BFS, for ordered/random/striped labelings.
func Fig6(cfg Config) (Fig6Result, error) {
	const workers = 8
	res := Fig6Result{Workers: workers, PerWorker: map[string][]int64{}}
	for _, scheme := range labelingSchemes {
		g := socialGraphFor(cfg, scheme, workers)
		src := core.RandomSources(g, 1, cfg.seed())[0]
		opt := core.Options{
			Workers:          workers,
			DisableStealing:  true,
			CollectIterStats: true,
			// One contiguous task per worker: the paper's Figure 6 gives
			// worker i the i-th n/8th of the vertex range.
			SplitSize: oneTaskPerStripe(g, workers),
			// The visited-neighbors skew is a top-down phenomenon (hubs'
			// neighbor lists are scanned from their owner's partition);
			// the bottom-up direction scans ranges uniformly and would
			// wash the signal out.
			Direction: core.TopDownOnly,
		}
		r := core.SMSPBFS(g, src, core.BitState, opt)
		per := make([]int64, workers)
		for _, it := range r.Stats.Iterations {
			for w, c := range it.WorkerScanned {
				per[w] += c
			}
		}
		res.PerWorker[scheme.String()] = per
	}
	return res, nil
}

// oneTaskPerStripe is the split size that cuts each of the kernels'
// worker stripes into a single task.
func oneTaskPerStripe(g *graph.Graph, workers int) int {
	return sched.NewStripes(g.NumVertices(), workers, sched.StripeStride).Per()
}

func runFig6(cfg Config) ([][]string, error) {
	res, err := Fig6(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 6: visited neighbors per worker (static partitioning, %d workers)\n", res.Workers)
	for _, scheme := range labelingSchemes {
		name := scheme.String()
		fmt.Fprintf(w, "%-8s:", name)
		for _, c := range res.PerWorker[name] {
			fmt.Fprintf(w, " %10d", c)
		}
		fmt.Fprintf(w, "   (max/min spread %.1fx)\n", spread(res.PerWorker[name]))
	}
	fmt.Fprintf(w, "paper: ordered piles nearly all neighbor visits on worker 1; random and striped spread them.\n")
	return nil, nil
}

func spread(xs []int64) float64 {
	if len(xs) == 0 {
		return 1
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min < 1 {
		min = 1
	}
	return float64(max) / float64(min)
}

// Fig7Result is the per-iteration x per-worker matrix of updated BFS vertex
// states for ordered labeling under static partitioning.
type Fig7Result struct {
	Workers int
	// Updated[i][w] is the number of vertex states worker w updated in
	// iteration i+1.
	Updated [][]int64
}

// Fig7 reproduces the per-iteration workload distribution of Figure 7.
func Fig7(cfg Config) (Fig7Result, error) {
	const workers = 8
	g := socialGraphFor(cfg, label.DegreeOrdered, workers)
	src := core.RandomSources(g, 1, cfg.seed())[0]
	opt := core.Options{
		Workers:          workers,
		DisableStealing:  true,
		CollectIterStats: true,
		SplitSize:        oneTaskPerStripe(g, workers),
		Direction:        core.TopDownOnly,
	}
	r := core.SMSPBFS(g, src, core.BitState, opt)
	res := Fig7Result{Workers: workers}
	for _, it := range r.Stats.Iterations {
		res.Updated = append(res.Updated, it.WorkerUpdated)
	}
	return res, nil
}

func runFig7(cfg Config) ([][]string, error) {
	res, err := Fig7(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 7: updated BFS vertex states per worker per iteration (ordered labeling, static partitioning)\n")
	fmt.Fprintf(w, "%-5s", "iter")
	for i := 0; i < res.Workers; i++ {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("w%d", i+1))
	}
	fmt.Fprintln(w)
	for i, row := range res.Updated {
		fmt.Fprintf(w, "%-5d", i+1)
		for _, c := range row {
			fmt.Fprintf(w, " %9d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "paper: iteration 2 updates few (hub) vertices, iteration 3 explodes; per-worker load varies across iterations.\n")
	return nil, nil
}

// LabelingSeries is one (algorithm, labeling) runtime-per-iteration series.
type LabelingSeries struct {
	Algorithm string
	Labeling  string
	// IterMillis[i] is the average wall time of iteration i+1 in ms.
	IterMillis []float64
	// TotalMillis is the average total runtime per BFS (the Section 5.1
	// per-BFS numbers: 42ms striped / 86ms ordered / 68ms random).
	TotalMillis float64
	// IterSkew[i] is the longest/shortest worker busy ratio (Figure 9).
	IterSkew []float64
}

// Fig8Result carries the labeling comparison data for Figures 8 and 9.
type Fig8Result struct {
	Workers int
	Series  []LabelingSeries
}

// Fig8 runs MS-PBFS and SMS-PBFS under the three labelings with work
// stealing enabled and records per-iteration runtimes and skew.
func Fig8(cfg Config) (Fig8Result, error) {
	workers := cfg.workers()
	scale := cfg.scale()
	res := Fig8Result{Workers: workers}
	numSources := cfg.sources()

	for _, scheme := range labelingSchemes {
		g, _ := label.Apply(kronecker(scale, cfg.seed()), scheme,
			label.Params{Workers: workers, Seed: cfg.seed()})
		sources := core.RandomSources(g, numSources, cfg.seed()+1)
		opt := core.Options{Workers: workers, CollectIterStats: true}

		ms := core.MSPBFS(g, sources, opt)
		res.Series = append(res.Series, summarizeIters("MS-PBFS", scheme.String(), ms.Stats.Iterations, ms.Stats.Elapsed))

		sms := core.SMSPBFS(g, sources[0], core.BitState, opt)
		res.Series = append(res.Series, summarizeIters("SMS-PBFS", scheme.String(), sms.Stats.Iterations, sms.Stats.Elapsed))
	}
	return res, nil
}

func summarizeIters(algo, labeling string, iters []obs.IterationRecord, total time.Duration) LabelingSeries {
	s := LabelingSeries{
		Algorithm:   algo,
		Labeling:    labeling,
		TotalMillis: float64(total) / float64(time.Millisecond),
	}
	for _, it := range iters {
		s.IterMillis = append(s.IterMillis, float64(it.Duration)/float64(time.Millisecond))
		s.IterSkew = append(s.IterSkew, it.Skew())
	}
	return s
}

func runFig8(cfg Config) ([][]string, error) {
	res, err := Fig8(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 8: runtime per BFS iteration (ms) per labeling (%d workers, work stealing)\n", res.Workers)
	printLabelingSeries(w, res.Series, func(s LabelingSeries) []float64 { return s.IterMillis }, "%.2f")
	fmt.Fprintf(w, "iteration-time profiles (sparklines):\n")
	for _, s := range res.Series {
		fmt.Fprintf(w, "  %-9s %-8s |%s|\n", s.Algorithm, s.Labeling, sparkline(s.IterMillis))
	}
	fmt.Fprintf(w, "per-BFS totals (Section 5.1 reports striped < random < ordered for SMS-PBFS):\n")
	labels := make([]string, 0, len(res.Series))
	totals := make([]float64, 0, len(res.Series))
	for _, s := range res.Series {
		labels = append(labels, s.Algorithm+" "+s.Labeling)
		totals = append(totals, s.TotalMillis)
	}
	barChart(w, labels, totals, " ms", 40)
	return res.csv(), nil
}

func runFig9(cfg Config) ([][]string, error) {
	res, err := Fig8(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Figure 9: worker runtime skew (longest/shortest) per iteration per labeling (%d workers)\n", res.Workers)
	printLabelingSeries(w, res.Series, func(s LabelingSeries) []float64 { return s.IterSkew }, "%.1f")
	fmt.Fprintf(w, "paper: skew hits ~15x for ordered SMS-PBFS in the hot iteration; striped and random stay low.\n")
	return res.csv(), nil
}

func printLabelingSeries(w interface{ Write([]byte) (int, error) }, series []LabelingSeries,
	pick func(LabelingSeries) []float64, cell string) {
	for _, s := range series {
		fmt.Fprintf(w, "  %-9s %-8s:", s.Algorithm, s.Labeling)
		for _, v := range pick(s) {
			fmt.Fprintf(w, " "+cell, v)
		}
		fmt.Fprintln(w)
	}
}
