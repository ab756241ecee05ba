// Package a is the falseshare golden corpus: per-worker-indexed writes to
// narrow and padded elements, waived sites, and the shapes the pass must
// leave alone (strided slots, maps, reads, non-worker indices).
package a

import "sync/atomic"

// padded mirrors the scheduler's cache-line-padded counter cell.
type padded struct {
	v int64
	_ [56]byte
}

// stats is a narrow two-field element (16 bytes).
type stats struct {
	tasks  int64
	steals int64
}

type bigStats struct {
	tasks atomic.Int64
	_     [56]byte
}

func NarrowWrites(busy []int64, workerID int, elapsed int64) {
	busy[workerID] = elapsed  // want `falsely shares a cache line`
	busy[workerID] += elapsed // want `falsely shares a cache line`
	busy[workerID]++          // want `falsely shares a cache line`
}

func NarrowFieldWrite(counts []stats, workerID int) {
	counts[workerID].tasks++       // want `falsely shares a cache line`
	counts[workerID].steals = 1    // want `falsely shares a cache line`
	counts[workerID] = stats{1, 2} // want `falsely shares a cache line`
}

func PaddedWrites(cells []padded, counts []bigStats, workerID int, elapsed int64) {
	cells[workerID].v += elapsed // 64-byte element: one worker per line
	counts[workerID].tasks.Add(1)
	counts[workerID] = bigStats{}
}

func WaivedWrite(timings []int64, workerID int, elapsed int64) {
	timings[workerID] = elapsed //bfs:share-ok one-shot result publish after the parallel phase
}

func StridedSlot(counts []int64, workerID int) {
	// Deliberate stride keeps workers a line apart; the index is not the
	// bare workerID ident, so the pass stays quiet by design.
	counts[workerID*8]++
}

func OtherIndex(levels []int32, v int) {
	levels[v] = 1 // per-vertex, not per-worker
}

func MapSlot(m map[int]int64, workerID int) {
	m[workerID] = 1 // map elements are not adjacent
}

func ArrayWrite(workerID int) {
	var busy [8]int64
	busy[workerID] = 1 // want `falsely shares a cache line`
	_ = busy
}

func ReadOnly(busy []int64, workerID int) int64 {
	return busy[workerID] // reads don't invalidate the line
}

// segmentHeader mirrors a scatter inbox header: declared per-worker and
// padded to exactly one cache line, so it stays quiet.
//
//bfs:perworker
type segmentHeader struct {
	words []uint64
	_     [40]byte
}

// mergeCounters mirrors a two-line accounting cell: 128 bytes is a valid
// cache-line multiple too.
//
//bfs:perworker
type mergeCounters struct {
	scanned [8]int64
	folded  [8]int64
}

// unpaddedHeader forgot its pad field.
//
//bfs:perworker
type unpaddedHeader struct { // want `per-worker struct unpaddedHeader is 24 bytes, not a multiple`
	words []uint64
}

type ( // grouped declarations carry the directive per TypeSpec
	//bfs:perworker
	groupedBad struct { // want `per-worker struct groupedBad is 8 bytes, not a multiple`
		v int64
	}

	groupedUnmarked struct { // no directive: quiet
		v int64
	}
)

//bfs:perworker
type notAStruct []int64 // want `//bfs:perworker on non-struct type notAStruct`

// plainNarrow has no directive: the type-level rule stays quiet even
// though a workerID-indexed write to it would be flagged by the site rule.
type plainNarrow struct {
	v int64
}

func useDecls(h segmentHeader, m mergeCounters, u unpaddedHeader, g groupedBad, gu groupedUnmarked, na notAStruct, p plainNarrow) {
	_, _, _, _, _, _, _ = h, m, u, g, gu, na, p
}
