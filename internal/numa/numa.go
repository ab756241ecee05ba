// Package numa models the NUMA behaviour that the paper controls with
// thread pinning and first-touch page placement (Section 4.4). Go offers no
// portable NUMA control, so instead of silently dropping the paper's NUMA
// analysis this package implements the same placement logic as a
// simulation substrate: a socket topology, page-granular ownership of the
// BFS arrays derived from the task layout, and access accounting that
// measures how local the algorithms' reads and writes actually are.
//
// The paper's central NUMA claims — pages are interleaved at exactly the
// task-range borders, each worker initializes (first-touches) its own
// ranges, and consequently all writes except the first top-down phase and
// stolen tasks are NUMA-local — are directly checkable against this model,
// which is what the NUMA tests and the fig11 "one per socket" experiment
// do. See DESIGN.md §3 for the substitution rationale.
package numa

import (
	"fmt"

	"repro/internal/sched"
)

// PageSize is the modeled memory page size in bytes (4 KiB, the common
// size the paper's placement arithmetic assumes in Section 4.4).
const PageSize = 4096

// Topology describes a multi-socket machine: Sockets NUMA regions with
// WorkersPerSocket workers each, numbered so that workers
// [s*WorkersPerSocket, (s+1)*WorkersPerSocket) live on socket s — the same
// layout as the paper's evaluation machine (threads 1-15 on socket one,
// 16-30 on socket two, ...).
type Topology struct {
	Sockets          int
	WorkersPerSocket int
}

// SingleSocket returns a degenerate topology with all workers on one
// region, used when NUMA modeling is not of interest.
func SingleSocket(workers int) Topology {
	return Topology{Sockets: 1, WorkersPerSocket: workers}
}

// Split distributes workers over sockets as evenly as possible and returns
// the resulting topology (workers rounded up to a multiple of sockets).
func Split(workers, sockets int) Topology {
	if sockets < 1 {
		sockets = 1
	}
	per := (workers + sockets - 1) / sockets
	if per < 1 {
		per = 1
	}
	return Topology{Sockets: sockets, WorkersPerSocket: per}
}

// Workers returns the total worker count of the topology.
func (t Topology) Workers() int { return t.Sockets * t.WorkersPerSocket }

// RegionOf returns the NUMA region (socket) of the given worker.
func (t Topology) RegionOf(worker int) int {
	if t.WorkersPerSocket == 0 {
		return 0
	}
	r := worker / t.WorkersPerSocket
	if r >= t.Sockets {
		r = t.Sockets - 1
	}
	return r
}

// StealOrder builds the per-worker queue-visit order that makes work
// stealing NUMA-aware: each worker drains its own queue, then steals from
// queues of workers in the same region, and only then crosses sockets.
// Within each group the order is round-robin from the worker's own index so
// contention spreads. The result plugs into sched.TaskQueues.SetStealOrder.
func StealOrder(t Topology) [][]int {
	n := t.Workers()
	order := make([][]int, n)
	for w := 0; w < n; w++ {
		perm := make([]int, 0, n)
		perm = append(perm, w)
		region := t.RegionOf(w)
		for off := 1; off < n; off++ { // same-region victims first
			v := (w + off) % n
			if t.RegionOf(v) == region {
				perm = append(perm, v)
			}
		}
		for off := 1; off < n; off++ { // then remote regions
			v := (w + off) % n
			if t.RegionOf(v) != region {
				perm = append(perm, v)
			}
		}
		order[w] = perm
	}
	return order
}

// AlignedRanges splits [0, n) into parts contiguous ranges of near-equal
// size whose borders are aligned to stride, and returns the parts+1 range
// boundaries. It is the same border arithmetic PlaceFirstTouch relies on —
// ownership changes only at aligned borders, so no aligned unit (a page
// here, a bitset word for the cluster's vertex partition) ever straddles
// two owners. Trailing ranges may be empty when n is small relative to
// parts*stride.
func AlignedRanges(n, parts, stride int) []int {
	if parts < 1 {
		parts = 1
	}
	if stride < 1 {
		stride = 1
	}
	per := (n + parts - 1) / parts
	if rem := per % stride; rem != 0 {
		per += stride - rem
	}
	starts := make([]int, parts+1)
	for i := 1; i <= parts; i++ {
		s := i * per
		if s > n {
			s = n
		}
		starts[i] = s
	}
	return starts
}

// PageMap records which NUMA region owns each page of one BFS array. Arrays
// are described by their element size; vertex v's element occupies bytes
// [v*elemBytes, (v+1)*elemBytes).
type PageMap struct {
	topo      Topology
	elemBytes int
	owner     []int8 // region per page
	numElems  int
}

// NewPageMap creates an unplaced map for an array of n elements of
// elemBytes each. Pages start owned by region 0 (the allocation region).
func NewPageMap(topo Topology, n, elemBytes int) *PageMap {
	if elemBytes < 1 {
		panic("numa: element size must be positive")
	}
	pages := (n*elemBytes + PageSize - 1) / PageSize
	return &PageMap{
		topo:      topo,
		elemBytes: elemBytes,
		owner:     make([]int8, pages),
		numElems:  n,
	}
}

// NumPages returns the number of modeled pages.
func (m *PageMap) NumPages() int { return len(m.owner) }

// PageOfElem returns the page index containing element v.
func (m *PageMap) PageOfElem(v int) int { return v * m.elemBytes / PageSize }

// OwnerOfElem returns the region owning the page of element v.
func (m *PageMap) OwnerOfElem(v int) int { return int(m.owner[m.PageOfElem(v)]) }

// PlaceFirstTouch records the placement that results from the paper's
// parallel initialization: each worker first-touches (and thereby places in
// its own region) the pages of the task ranges in its own queue. Pages
// spanning a task border are attributed to the earlier range's worker, as
// first touch would. Returns the number of pages per region.
func (m *PageMap) PlaceFirstTouch(tq *sched.TaskQueues) []int {
	for w := 0; w < tq.NumWorkers(); w++ {
		region := int8(m.topo.RegionOf(w))
		for _, r := range tq.WorkerTasks(w) {
			if r.Empty() {
				continue
			}
			loPage := m.PageOfElem(r.Lo)
			hiPage := m.PageOfElem(r.Hi - 1)
			// First-touch: a page already claimed by an earlier range
			// stays with its first toucher. Ranges are visited in queue
			// order per worker, but across workers order is round-robin
			// by construction, so deterministically resolve shared
			// boundary pages to the lower range.
			for pg := loPage; pg <= hiPage; pg++ {
				if pg == loPage && r.Lo*m.elemBytes%PageSize != 0 {
					continue // partial leading page belongs to predecessor
				}
				m.owner[pg] = region
			}
		}
	}
	counts := make([]int, m.topo.Sockets)
	for _, o := range m.owner {
		counts[o]++
	}
	return counts
}

// Tracker accumulates modeled local and remote page accesses per worker.
// The BFS kernels call it at task granularity (not per element), so the
// accounting overhead is negligible even in measured runs.
type Tracker struct {
	topo   Topology
	local  []int64
	remote []int64
}

// NewTracker creates a tracker for the topology's workers.
func NewTracker(topo Topology) *Tracker {
	n := topo.Workers()
	return &Tracker{topo: topo, local: make([]int64, n), remote: make([]int64, n)}
}

// RecordRange accounts worker's access to elements [lo, hi) of the array
// described by m: each touched page counts as local or remote depending on
// its owner. Each worker owns its own counters, so no synchronization is
// needed when workers record their own accesses.
func (t *Tracker) RecordRange(m *PageMap, worker, lo, hi int) {
	if lo >= hi {
		return
	}
	region := t.topo.RegionOf(worker)
	loPage := m.PageOfElem(lo)
	hiPage := m.PageOfElem(hi - 1)
	for pg := loPage; pg <= hiPage; pg++ {
		if int(m.owner[pg]) == region {
			t.local[worker]++
		} else {
			t.remote[worker]++
		}
	}
}

// RecordRangeElems accounts worker's access to every element of [lo, hi),
// weighting by element count rather than page count so that scatter
// accesses (recorded per element) and range accesses are measured in the
// same unit. All pages of a task range share one owner by construction
// (placement happens at task borders), so the first element's owner stands
// for the range.
func (t *Tracker) RecordRangeElems(m *PageMap, worker, lo, hi int) {
	if lo >= hi {
		return
	}
	region := t.topo.RegionOf(worker)
	if int(m.owner[m.PageOfElem(lo)]) == region {
		t.local[worker] += int64(hi - lo)
	} else {
		t.remote[worker] += int64(hi - lo)
	}
}

// RecordLocalN accounts n accesses that are local by construction — the
// worker-owned frontier shadows: a scatter into the worker's private slab
// never leaves its region, which is precisely the property the segmented
// substrate buys over the shared-CAS design.
func (t *Tracker) RecordLocalN(worker int, n int64) {
	t.local[worker] += n
}

// RecordShadowMerge accounts a stripe owner's merge reads of another
// worker's shadow stripe: local when both workers share a region, remote
// otherwise. The canonical stripe write is local by first-touch and is
// accounted separately via RecordRangeElems.
func (t *Tracker) RecordShadowMerge(owner, shadowWorker int, words int64) {
	if t.topo.RegionOf(owner) == t.topo.RegionOf(shadowWorker) {
		t.local[owner] += words
	} else {
		t.remote[owner] += words
	}
}

// Totals returns the summed local and remote access counts.
func (t *Tracker) Totals() (local, remote int64) {
	for i := range t.local {
		local += t.local[i]
		remote += t.remote[i]
	}
	return local, remote
}

// LocalityRatio returns local/(local+remote), or 1 if nothing was recorded.
func (t *Tracker) LocalityRatio() float64 {
	l, r := t.Totals()
	if l+r == 0 {
		return 1
	}
	return float64(l) / float64(l+r)
}

// Reset zeroes the counters.
func (t *Tracker) Reset() {
	for i := range t.local {
		t.local[i] = 0
		t.remote[i] = 0
	}
}

// String summarizes the tracker.
func (t *Tracker) String() string {
	l, r := t.Totals()
	return fmt.Sprintf("numa.Tracker{local=%d remote=%d locality=%.3f}", l, r, t.LocalityRatio())
}
