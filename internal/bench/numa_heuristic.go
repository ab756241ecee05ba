package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// NUMARow is one modeled-locality measurement.
type NUMARow struct {
	Algorithm string
	Stealing  bool
	// Local and Remote are the modeled accesses; Locality is
	// Local / (Local + Remote).
	Local, Remote int64
	Locality      float64
}

// NUMAResult is the data behind the Section 4.4 locality analysis.
type NUMAResult struct {
	Sockets int
	Rows    []NUMARow
}

// numaWorkers is the modeled machine: two sockets with one worker each, so
// a task runs on the socket that holds its pages exactly when its owner
// runs it.
const numaWorkers = 2

// pageBytes is the modeled page size (4 KiB, the size Section 4.4's
// placement arithmetic assumes).
const pageBytes = 4096

// numaKernel is what the locality model needs besides a flight record: the
// vertex count n, the graph's active prefix (the vertices the kernels'
// sweeps cover), the task size split, how many vertices' state one page
// holds, and whether a bottom-up task is charged per page it sweeps
// (MS-PBFS's 64-bit rows) or per vertex (SMS-PBFS's byte states).
type numaKernel struct {
	n, active, split, pageVertices int
	bottomUpPages                  bool
}

// accesses replays a traversal's flight record on the modeled machine.
// First touch places the pages at the task-range borders (Section 4.4):
// stripe [0, n/2) lives on socket 0 and [n/2, n) on socket 1. With split a
// whole number of pages and n/2 a whole number of tasks, every task's pages
// share one owner, so a task is remote exactly when it was stolen. Per
// level:
//
//   - top-down scatter and apply: each scanned edge is one write into the
//     stripe of the worker that makes it (the scatter writes only its own
//     stripe, the apply only the owner's), so it is local whoever runs the
//     task; each inbox entry is one local append by the scatter worker and
//     one read by the other stripe's owner, which is remote;
//   - top-down resolve: the tasks sweep the active prefix, split vertices
//     each, remote if stolen; the level's resolve steals are Steals() -
//     ScatterSteals, since the apply never steals;
//   - bottom-up: each task sweeps split vertices (MS-PBFS: their pages),
//     remote if stolen.
func (k numaKernel) accesses(tv obs.Traversal) (local, remote int64, err error) {
	if k.split < 1 || k.pageVertices < 1 || k.split%k.pageVertices != 0 ||
		k.n%numaWorkers != 0 || (k.n/numaWorkers)%k.split != 0 {
		return 0, 0, fmt.Errorf("bench: NUMA model needs split (%d) in whole %d-vertex pages and n/2 (%d/2) in whole tasks",
			k.split, k.pageVertices, k.n)
	}
	unit := int64(k.split)
	if k.bottomUpPages {
		unit /= int64(k.pageVertices)
	}
	for _, it := range tv.Iterations {
		if it.BottomUp {
			stolen := it.Steals()
			local += (it.Tasks() - stolen) * unit
			remote += stolen * unit
			continue
		}
		local += it.ScannedEdges + it.MergeWords
		remote += it.MergeWords
		stolen := (it.Steals() - it.ScatterSteals) * int64(k.split)
		local += int64(k.active) - stolen
		remote += stolen
	}
	return local, remote, nil
}

// NUMALocality models the NUMA page locality of the BFS kernels on two
// sockets with one worker each, with and without work stealing. The
// paper's design goal (Section 4.4): all writes are region-local except the
// first top-down phase and stolen tasks; under the scatter → apply
// protocol even the first top-down phase writes locally, and its remote
// accesses are the apply's inbox reads. Go cannot place pages, so each row
// is one traced run replayed through numaKernel.accesses.
func NUMALocality(cfg Config) (NUMAResult, error) {
	// Each task is one page: 512 vertices of the 8-byte MS-PBFS rows, 4096
	// of the 1-byte SMS-PBFS state. The scale must give each worker several
	// pages of the byte state, or the model degenerates to a single page.
	scale := max(cfg.scale(), 15)
	g := specGraph(kronSpec(scale, cfg.seed()), numaWorkers)
	sources := core.RandomSources(g, 64, cfg.seed()+41)
	n, a := g.NumVertices(), g.ActivePrefix()
	ms := numaKernel{n: n, active: a, split: pageBytes / 8, pageVertices: pageBytes / 8, bottomUpPages: true}
	sms := numaKernel{n: n, active: a, split: pageBytes, pageVertices: pageBytes}
	res := NUMAResult{Sockets: numaWorkers}

	row := func(algo string, steal bool, k numaKernel, run func(core.Options)) error {
		tr := obs.NewTracer()
		run(core.Options{Workers: numaWorkers, SplitSize: k.split, DisableStealing: !steal, Tracer: tr})
		r := NUMARow{Algorithm: algo, Stealing: steal, Locality: 1}
		for _, tv := range tr.Snapshot().Traversals {
			l, rm, err := k.accesses(tv)
			if err != nil {
				return err
			}
			r.Local, r.Remote = r.Local+l, r.Remote+rm
		}
		if r.Local+r.Remote > 0 {
			r.Locality = float64(r.Local) / float64(r.Local+r.Remote)
		}
		res.Rows = append(res.Rows, r)
		return nil
	}
	for _, steal := range []bool{true, false} {
		if err := row("MS-PBFS", steal, ms, func(opt core.Options) { core.MSPBFS(g, sources, opt) }); err != nil {
			return res, err
		}
		if err := row("SMS-PBFS", steal, sms, func(opt core.Options) { core.SMSPBFS(g, sources[0], core.ByteState, opt) }); err != nil {
			return res, err
		}
	}
	return res, nil
}

func runNUMA(cfg Config) ([][]string, error) {
	res, err := NUMALocality(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Section 4.4: modeled NUMA page locality (%d sockets, one worker each)\n", res.Sockets)
	fmt.Fprintf(w, "%-10s %-10s %10s  %s\n", "algorithm", "stealing", "locality", "local/remote")
	for _, r := range res.Rows {
		steal := "on"
		if !r.Stealing {
			steal = "off"
		}
		fmt.Fprintf(w, "%-10s %-10s %9.1f%%  %d/%d\n", r.Algorithm, steal, 100*r.Locality, r.Local, r.Remote)
	}
	fmt.Fprintf(w, "paper: all writes NUMA-local except the first top-down phase and stolen tasks;\n")
	fmt.Fprintf(w, "       disabling stealing removes the second source of remote accesses.\n")
	return res.csv(), nil
}

// AlphaBetaRow is one point of the direction-heuristic parameter sweep.
type AlphaBetaRow struct {
	Alpha, Beta float64
	Elapsed     time.Duration
	BottomUpIts int
	// FirstBottomUp is the 1-based iteration of the first bottom-up step
	// (0 if the run never switched). Larger alpha switches earlier; this is
	// the discriminating signal, since any alpha eventually switches once
	// the unexplored volume approaches zero.
	FirstBottomUp int
}

// AlphaBetaResult is the heuristic-sensitivity ablation data.
type AlphaBetaResult struct {
	Rows []AlphaBetaRow
}

// AlphaBeta sweeps the direction-switch parameters around the GAPBS
// defaults (alpha 15, beta 18) to show the heuristic's robustness plateau.
func AlphaBeta(cfg Config) (AlphaBetaResult, error) {
	workers := cfg.workers()
	g := specGraph(kronSpec(cfg.scale(), cfg.seed()), workers)
	sources := core.RandomSources(g, 64, cfg.seed()+51)
	var res AlphaBetaResult
	// With 64 concurrent BFSs the aggregate frontier grows so fast that
	// even alpha=1 switches within two iterations; the sweep reaches down
	// to 0.01 (threshold 100x the unexplored volume, i.e. never switch) to
	// expose the heuristic's full range.
	alphas := []float64{0.01, 0.1, 1, 15, 240}
	betas := []float64{18}
	if !cfg.Quick {
		betas = []float64{4, 18, 72}
	}
	for _, a := range alphas {
		for _, b := range betas {
			opt := core.Options{Workers: workers, Alpha: a, Beta: b, CollectIterStats: true}
			r := core.MSPBFS(g, sources, opt)
			bu, first := 0, 0
			for _, it := range r.Stats.Iterations {
				if it.BottomUp {
					bu++
					if first == 0 {
						first = it.Iteration
					}
				}
			}
			res.Rows = append(res.Rows, AlphaBetaRow{
				Alpha: a, Beta: b, Elapsed: r.Stats.Elapsed,
				BottomUpIts: bu, FirstBottomUp: first,
			})
		}
	}
	return res, nil
}

func runAlphaBeta(cfg Config) ([][]string, error) {
	res, err := AlphaBeta(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.out()
	fmt.Fprintf(w, "Direction-heuristic sensitivity (MS-PBFS, 64 sources)\n")
	fmt.Fprintf(w, "%8s %8s %12s %14s %9s\n", "alpha", "beta", "elapsed", "bottom-up its", "first BU")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%8.2f %8.0f %12v %14d %9d\n",
			r.Alpha, r.Beta, r.Elapsed.Round(time.Microsecond), r.BottomUpIts, r.FirstBottomUp)
	}
	fmt.Fprintf(w, "larger alpha switches to bottom-up earlier (smaller first-BU iteration); any alpha\n")
	fmt.Fprintf(w, "eventually switches as the unexplored volume shrinks. The GAPBS defaults sit on the\n")
	fmt.Fprintf(w, "flat middle of the runtime plateau.\n")
	return res.csv(), nil
}
