package server

import (
	"context"

	msbfs "repro"
	"repro/internal/cluster"
	"repro/internal/dyngraph"
)

// Backend is everything the coalescer needs from a served graph: its size,
// for request validation, and a way to pin one version of it for a request.
// The three served shapes differ only here. A static *msbfs.Graph and a
// sharded *cluster.RemoteGraph are immutable, so each is a backend with one
// eternal version: Pin returns the graph itself (no allocation, no lock)
// whichever version is asked for, and the view reports Version 0 — which is
// how the coalescer knows an explicit Query.Version cannot be honored. A
// dynamic graph pins the MVCC snapshot of the requested version (0:
// current) through dynBackend.
type Backend interface {
	NumVertices() int
	// Pin returns the view to traverse for one request. The caller owns the
	// view and must Release it exactly once; on error there is no view.
	Pin(version uint64) (Pinned, error)
}

// Pinned is one immutable version of a graph, held by a request from
// admission until its batch has run, so every coalesced query is
// repeatable-read isolated from concurrent ingest and compaction. RunBatch
// has the MultiBFSVisitor contract in a context-aware, fallible form: a
// remote backend honors the requests' deadlines and fails the batch on a
// shard death instead of panicking.
//
// Pinned is an alias of its method set rather than a defined type so that
// packages the server imports — the library's Graph, the cluster's
// RemoteGraph, dyngraph's Snapshot — satisfy Backend and Pinned
// structurally, without importing the server.
type Pinned = interface {
	Version() uint64
	RunBatch(ctx context.Context, sources []int, opt msbfs.Options,
		visit func(workerID, sourceIdx, vertex, depth int)) (*msbfs.MultiResult, error)
	Release()
}

var (
	_ Backend = (*msbfs.Graph)(nil)
	_ Backend = (*cluster.RemoteGraph)(nil)
	_ Backend = dynBackend{}
)

// dynBackend is the one adapter the seam needs: DynGraph.AcquireVersion
// returns the concrete *dyngraph.Snapshot, which Go does not accept where
// Pin must return the Pinned interface.
type dynBackend struct{ *dyngraph.DynGraph }

func (b dynBackend) Pin(version uint64) (Pinned, error) {
	return b.DynGraph.AcquireVersion(version) //bfs:arena-held handed to Pin's caller, which unpins via Pinned.Release
}
