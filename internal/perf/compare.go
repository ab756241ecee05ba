package perf

import (
	"fmt"
	"io"
	"strings"
)

// Verdict classifies one scenario's delta between two reports.
type Verdict string

const (
	// VerdictOK: no confirmed change (CIs overlap, or the delta is within
	// the scenario's threshold).
	VerdictOK Verdict = "ok"
	// VerdictRegression: the new median is slower beyond the threshold AND
	// the confidence intervals separate.
	VerdictRegression Verdict = "regression"
	// VerdictImprovement: faster beyond the threshold with separated CIs.
	VerdictImprovement Verdict = "improvement"
	// VerdictNew / VerdictRemoved: the scenario exists in only one report.
	VerdictNew     Verdict = "new"
	VerdictRemoved Verdict = "removed"
)

// Threshold returns the scenario's minimum median delta (as a fraction)
// before a CI-separated change is treated as real. The default is 5%;
// scenarios with inherent queueing or allocator noise get wider gates.
func Threshold(name string) float64 {
	switch {
	case strings.HasPrefix(name, "smspbfs/"):
		// Single-source kernels: one traversal's worth of work per
		// repetition instead of the multi-source batch, so the median sits
		// an order of magnitude lower than the mspbfs rows and the same
		// absolute jitter (timer granularity, a stray GC cycle during the
		// O(n)-per-iteration frontier maintenance) is a larger fraction of
		// it. 8% keeps the gate meaningful without tripping on noise; the
		// absolute-GTEPS investigation of the smspbfs/bit outlier is
		// recorded in docs/BENCHMARKS.md.
		return 0.08
	case strings.HasPrefix(name, "csr/"):
		// Large transient allocations make build times GC-phase dependent.
		return 0.08
	case strings.HasPrefix(name, "dyn/"):
		// Overlay pages are small and cache-cold relative to the CSR, so
		// the fused scan's timing moves with allocator placement between
		// runs; wider than the kernels, tighter than the cluster row.
		return 0.10
	case strings.HasPrefix(name, "cluster/"):
		// Loopback RPC and the per-level barrier put kernel timings behind
		// scheduler and TCP latency; on a loaded CI container medians
		// wander ~20% between back-to-back runs, far more than any
		// in-process scenario.
		return 0.25
	default:
		return 0.05
	}
}

// Delta is one scenario's comparison.
type Delta struct {
	Name        string
	Verdict     Verdict
	OldMedianNs int64
	NewMedianNs int64
	// Ratio is new/old median (1.0 = unchanged, 2.0 = twice as slow).
	Ratio float64
	// Threshold is the gate fraction applied to this scenario.
	Threshold float64
	// CISeparated reports whether the 95% CIs do not overlap.
	CISeparated bool
}

// Comparison is the joined result of two reports.
type Comparison struct {
	Old, New *Report
	// EnvComparable is false when the reports come from different
	// machines/toolchains; verdicts are then advisory.
	EnvComparable bool
	// WorkloadMatches is false when the suite sizing differs; verdicts are
	// then meaningless and Compare marks every row ok-with-warning.
	WorkloadMatches bool
	Deltas          []Delta
}

// Compare joins two reports scenario by scenario and applies the
// noise-aware gate: a change is confirmed only when the bootstrap CIs
// separate AND the median moved beyond the scenario's threshold. Either
// condition alone is noise: overlapping CIs mean the medians are not
// distinguishable, and a CI-separated 1% drift is real but not actionable.
func Compare(old, new *Report) *Comparison {
	c := &Comparison{
		Old:             old,
		New:             new,
		EnvComparable:   old.Env.Comparable(new.Env),
		WorkloadMatches: old.Config.sameWorkload(new.Config),
	}
	seen := map[string]bool{}
	for _, o := range old.Scenarios {
		seen[o.Name] = true
		n := new.Row(o.Name)
		if n == nil {
			c.Deltas = append(c.Deltas, Delta{Name: o.Name, Verdict: VerdictRemoved,
				OldMedianNs: o.MedianNs, Threshold: Threshold(o.Name)})
			continue
		}
		d := Delta{
			Name:        o.Name,
			Verdict:     VerdictOK,
			OldMedianNs: o.MedianNs,
			NewMedianNs: n.MedianNs,
			Threshold:   Threshold(o.Name),
		}
		if o.MedianNs > 0 {
			d.Ratio = float64(n.MedianNs) / float64(o.MedianNs)
		}
		slowerCI := n.CILoNs > o.CIHiNs
		fasterCI := n.CIHiNs < o.CILoNs
		d.CISeparated = slowerCI || fasterCI
		if c.WorkloadMatches {
			switch {
			case slowerCI && d.Ratio > 1+d.Threshold:
				d.Verdict = VerdictRegression
			case fasterCI && d.Ratio < 1-d.Threshold:
				d.Verdict = VerdictImprovement
			}
		}
		c.Deltas = append(c.Deltas, d)
	}
	for _, n := range new.Scenarios {
		if !seen[n.Name] {
			c.Deltas = append(c.Deltas, Delta{Name: n.Name, Verdict: VerdictNew,
				NewMedianNs: n.MedianNs, Threshold: Threshold(n.Name)})
		}
	}
	return c
}

// Regressions counts confirmed regressions.
func (c *Comparison) Regressions() int {
	n := 0
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRegression {
			n++
		}
	}
	return n
}

// Gate reports whether the comparison should fail a CI run. strict forces
// gating even across non-comparable environments; otherwise cross-machine
// regressions are advisory (a laptop baseline must not fail a CI runner).
func (c *Comparison) Gate(strict bool) bool {
	if c.Regressions() == 0 {
		return false
	}
	return strict || c.EnvComparable
}

// WriteTable renders the comparison as a markdown delta table.
func (c *Comparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "comparing %s%s -> %s%s\n",
		c.Old.Env.GitSHA, dirtyMark(c.Old.Env.GitDirty),
		c.New.Env.GitSHA, dirtyMark(c.New.Env.GitDirty))
	if !c.WorkloadMatches {
		fmt.Fprintf(w, "WARNING: suite sizing differs between reports; deltas are not comparable\n")
	}
	if !c.EnvComparable {
		fmt.Fprintf(w, "NOTE: environments differ (%d/%s/%s vs %d/%s/%s); verdicts are advisory\n",
			c.Old.Env.NumCPU, c.Old.Env.GoVersion, c.Old.Env.GOARCH,
			c.New.Env.NumCPU, c.New.Env.GoVersion, c.New.Env.GOARCH)
	}
	fmt.Fprintln(w, "| scenario | old median | new median | delta | gate | CI sep | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|:---:|---|")
	for _, d := range c.Deltas {
		delta := "-"
		if d.Ratio > 0 {
			delta = fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
		}
		sep := " "
		if d.CISeparated {
			sep = "yes"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %.0f%% | %s | %s |\n",
			d.Name, shortDur(d.OldMedianNs), shortDur(d.NewMedianNs),
			delta, d.Threshold*100, sep, d.Verdict)
	}
}
