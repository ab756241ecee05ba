package msbfs

import (
	"io"

	"repro/internal/obs"
)

// Tracer is the library's traversal flight recorder. Wire one through
// Options.Tracer and every BFS run records one entry per iteration — the
// direction it ran in and why the heuristic chose it, frontier/next/
// visited counts, wall time, and per-worker task and steal counts:
//
//	tr := msbfs.NewTracer()
//	g.MultiBFS(sources, msbfs.Options{Workers: 8, Tracer: tr})
//	tr.WriteText(os.Stdout)                  // per-iteration table
//	tr.WriteChromeTrace(f)                   // chrome://tracing / Perfetto
//
// A nil Tracer is the disabled state and is free: the kernels pay one
// pointer test per iteration and allocate nothing. Retention is bounded
// (a ring of recent traversals), so a long-lived tracer on a serving
// workload will not grow without limit; see docs/OBSERVABILITY.md.
//
// A Tracer is safe for concurrent use from any number of goroutines.
type Tracer struct {
	tr *obs.Tracer
}

// NewTracer creates a tracer with default retention bounds.
func NewTracer() *Tracer {
	return &Tracer{tr: obs.NewTracer()}
}

// WriteText renders the retained flight records as a human-readable
// per-iteration table.
func (t *Tracer) WriteText(w io.Writer) error {
	return t.obsTracer().WriteText(w)
}

// WriteChromeTrace exports the retained records in Chrome trace-event
// JSON, loadable in chrome://tracing and Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return t.obsTracer().WriteChromeTrace(w)
}

// obsTracer unwraps the tracer for the internal layers; nil maps to nil
// (the kernels' disabled fast path).
func (t *Tracer) obsTracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}
