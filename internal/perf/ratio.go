package perf

import (
	"fmt"
	"io"
)

// Ratio is one layer ratio of a report: the median of scenario Num over
// the median of scenario Den. Both rows are measured in the same
// interleaved repetitions on the same host, so the host's speed cancels
// out of the ratio, where a delta between two reports measures the host as
// much as the code (docs/BENCHMARKS.md, "The ratio rows").
type Ratio struct {
	Num   string  `json:"num"`
	Den   string  `json:"den"`
	What  string  `json:"what"`
	Value float64 `json:"value"`
	// Bound, when positive, gates the row: Value must stay below it. A row
	// has a bound only when ten quick A/A runs on the reference host all
	// stayed inside it.
	Bound float64 `json:"bound,omitempty"`
}

// ratioRows are the ratios every report carries, in table order.
var ratioRows = []Ratio{
	{Num: "mspbfs/auto-large", Den: "msbfs/sequential-large", Bound: 1,
		What: "the paper's claim: parallel MS-PBFS beats sequential MS-BFS past LLC"},
	{Num: "dyn/overlay-scan", Den: "mspbfs/auto", What: "cost of the overlay"},
	{Num: "cluster/inproc", Den: "mspbfs/auto", What: "cost of distribution"},
	{Num: "smspbfs/bit", Den: "beamer/gapbs", Bound: 2.5,
		What: "SMS-PBFS against one direction-optimizing BFS"},
	{Num: "mspbfs/topdown", Den: "mspbfs/auto", What: "cost of never switching direction"},
}

// Failed reports whether the row is gated and its value is not below its
// bound.
func (q Ratio) Failed() bool { return q.Bound > 0 && !(q.Value < q.Bound) }

// Name is the row's label, "num ÷ den".
func (q Ratio) Name() string { return q.Num + " ÷ " + q.Den }

// ratios computes every ratio row from the report's own medians.
func (r *Report) ratios() []Ratio {
	out := make([]Ratio, len(ratioRows))
	for i, q := range ratioRows {
		q.Value = float64(r.Row(q.Num).MedianNs) / float64(r.Row(q.Den).MedianNs)
		out[i] = q
	}
	return out
}

// writeRatios renders the ratio rows under the median table.
func (r *Report) writeRatios(w io.Writer) {
	fmt.Fprintf(w, "\n%-44s %7s %6s %7s  %s\n", "ratio", "value", "bound", "verdict", "what")
	for _, q := range r.Ratios {
		bound, verdict := "-", "-"
		if q.Bound > 0 {
			bound, verdict = fmt.Sprintf("< %g", q.Bound), "ok"
			if q.Failed() {
				verdict = "FAIL"
			}
		}
		fmt.Fprintf(w, "%-44s %7.3f %6s %7s  %s\n", q.Name(), q.Value, bound, verdict, q.What)
	}
}
