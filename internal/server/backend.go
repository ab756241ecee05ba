package server

import (
	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
)

// Backend is everything the coalescer needs from a served graph: its size,
// for request validation, and a way to pin one version of it for a request.
// The three served shapes — a static *msbfs.Graph, a sharded
// *cluster.RemoteGraph and a *dyngraph.DynGraph — differ only here. The two
// immutable ones pin themselves as their one eternal version, whichever
// version is asked for, and report Version 0 — which is how the coalescer
// knows an explicit Query.Version cannot be honored. A dynamic graph pins
// the MVCC snapshot of the requested version (0: current).
type Backend interface {
	NumVertices() int
	// Pin returns the view to traverse for one request. The caller owns the
	// view and must Release it exactly once; on error there is no view.
	Pin(version uint64) (msbfs.Pinned, error)
}

var (
	_ Backend = (*msbfs.Graph)(nil)
	_ Backend = (*cluster.RemoteGraph)(nil)
	_ Backend = (*dyngraph.DynGraph)(nil)
)
