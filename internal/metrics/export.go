package metrics

// This file defines the JSON-exportable view of a run. The perf harness
// (internal/perf) embeds it in its versioned BENCH_<sha>.json rows; keeping
// the field set and tags here means the schema follows the metrics types
// instead of being re-declared per tool.

// RunSummary is the JSON view of a RunStat: wall time, Graph500 edge
// accounting and the derived GTEPS, without the per-iteration detail.
type RunSummary struct {
	ElapsedNs      int64   `json:"elapsed_ns"`
	TraversedEdges int64   `json:"traversed_edges"`
	Sources        int     `json:"sources"`
	Iterations     int     `json:"iterations"`
	GTEPS          float64 `json:"gteps"`
}

// Summary converts the run into its exportable form.
func (r RunStat) Summary() RunSummary {
	return RunSummary{
		ElapsedNs:      int64(r.Elapsed),
		TraversedEdges: r.TraversedEdges,
		Sources:        r.Sources,
		Iterations:     len(r.Iterations),
		GTEPS:          r.GTEPS(),
	}
}
