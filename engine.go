package msbfs

import "repro/internal/core"

// Engine is the library's long-lived execution substrate: persistent
// worker pools plus a shape-keyed arena that recycles MS-PBFS's and
// SMS-PBFS's per-run state (bitset arrays, per-worker scratch and
// counters) across calls. Level rows are not recycled: a result's Levels
// are allocated for it and belong to the caller. Wire one through
// Options.Engine to give a subsystem — a daemon, a benchmark, a test —
// its own isolated recycling domain:
//
//	eng := msbfs.NewEngine(msbfs.Options{Workers: 8})
//	defer eng.Close()
//	opt := msbfs.Options{Workers: 8, Engine: eng}
//	res := g.MultiBFS(sources, opt) // a warm call allocates its result only
//
// When Options.Engine is nil, every call borrows from a shared library
// default engine instead, so the hot path avoids pool-spawn and state
// allocation churn either way; an explicit engine adds a lifecycle (Close
// releases the pooled goroutines and arena memory) and isolated Stats.
//
// An Engine is safe for concurrent use from any number of goroutines.
type Engine struct {
	eng *core.Engine
}

// NewEngine creates an engine and, when opt.Workers is positive,
// pre-spawns one pooled worker set of that width so the first query does
// not pay the goroutine spawn. Only Workers of opt is consulted. Unlike
// Options.Normalize, which reads Workers 0 as one worker, NewEngine reads
// it as no prewarm: an engine whose width is not known yet holds no pool
// its queries may never borrow.
func NewEngine(opt Options) *Engine {
	e := &Engine{eng: core.NewEngine()}
	if opt.Workers > 0 {
		e.eng.Prewarm(opt.Workers)
	}
	return e
}

// Close releases the engine's pooled worker goroutines and arena memory.
// The engine remains usable afterwards — borrows degrade to plain
// allocation — so in-flight queries racing a shutdown finish correctly.
func (e *Engine) Close() {
	e.eng.Close()
}

// EngineStats is a snapshot of an engine's pool and arena occupancy; see
// core.EngineStats for field semantics. The server exports these as
// bfsd_engine_* gauges on /metrics.
type EngineStats = core.EngineStats

// Stats snapshots the engine's pool/arena occupancy and hit counters.
func (e *Engine) Stats() EngineStats {
	return e.eng.Stats()
}

// Prewarm pre-spawns one pooled worker set of the given width (clamped to
// at least 1), so a later query of that width finds a warm pool.
func (e *Engine) Prewarm(workers int) {
	if workers < 1 {
		workers = 1
	}
	e.eng.Prewarm(workers)
}

// coreEngine unwraps the engine for the internal layers; nil maps to nil
// (core substitutes its package default).
func (e *Engine) coreEngine() *core.Engine {
	if e == nil {
		return nil
	}
	return e.eng
}
