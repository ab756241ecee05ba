package server

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// DebugHandler is bfsd's opt-in debug surface, served on a separate
// listener (the -debug-addr flag) so it is never exposed where the query
// endpoints are:
//
//	GET  /debug/pprof/            pprof index (heap, goroutine, ...)
//	GET  /debug/pprof/profile     CPU profile
//	GET  /debug/pprof/trace       runtime execution trace (seconds=N)
//	GET  /debug/flightrecorder    recent requests + slow-query log + spans
//	GET  /debug/stats             time-series store snapshot (?window=30s)
//	GET  /debug/dash              self-contained live sparkline dashboard
//
// Every capture is bounded: /debug/pprof/trace streams a window of
// seconds=N to the client, so the daemon holds no trace in memory.
type DebugHandler struct {
	reg *Registry
	mux *http.ServeMux
}

// NewDebugHandler builds the debug surface over reg's flight recorder and
// span tracer.
func NewDebugHandler(reg *Registry) *DebugHandler {
	d := &DebugHandler{reg: reg, mux: http.NewServeMux()}
	d.mux.HandleFunc("/debug/pprof/", pprof.Index)
	d.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	d.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	d.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	d.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.mux.HandleFunc("GET /debug/flightrecorder", d.flightRecorder)
	d.mux.HandleFunc("GET /debug/stats", d.stats)
	d.mux.HandleFunc("GET /debug/dash", d.dash)
	return d
}

// ServeHTTP implements http.Handler.
func (d *DebugHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mux.ServeHTTP(w, r)
}

// flightPayload is the /debug/flightrecorder response: the request ring
// and slow-query log plus the daemon's lifecycle spans (graph builds,
// relabels, batch flushes).
type flightPayload struct {
	FlightSnapshot
	Spans        []obs.Span `json:"spans,omitempty"`
	DroppedSpans uint64     `json:"dropped_spans,omitempty"`
}

func (d *DebugHandler) flightRecorder(w http.ResponseWriter, _ *http.Request) {
	payload := flightPayload{FlightSnapshot: d.reg.FlightRecorder().Snapshot()}
	trace := d.reg.Tracer().Snapshot()
	payload.Spans = trace.Spans
	payload.DroppedSpans = trace.DroppedSpans
	writeJSON(w, http.StatusOK, payload)
}
