package core

import "slices"

// Tally is one source's fold of its discoveries, summed over the workers
// that made them.
type Tally struct {
	DepthSum int64 // sum of discovery depths
	Reached  int64 // discoveries, including the source at depth 0
	InRadius int64 // discoveries within the slot's radius
	MaxDepth int32 // deepest discovery: the source's eccentricity
}

// Closeness is the source's Wasserman-Faust closeness centrality in an
// n-vertex graph: (reached-1)/DepthSum scaled by the fraction of the graph
// reached, 0 for a source that reaches nothing.
func (t Tally) Closeness(n int) float64 {
	if t.Reached <= 1 || t.DepthSum == 0 || n <= 1 {
		return 0
	}
	r := float64(t.Reached - 1)
	return r / float64(t.DepthSum) * r / float64(n-1)
}

// Fold folds one multi-source traversal's visitor stream of (source,
// vertex, depth) discoveries into per-source answers. Slot i is the
// traversal's i-th source; it has a Tally per worker, a radius for
// Tally.InRadius (-1: none) and optionally targets, whose depths Distances
// reports. Visit is the traversal's visitor (MSPBFSEngine.Run): each worker
// tallies into its own row, and each (slot, vertex) pair is discovered once
// across all workers, so workers write disjoint distance cells. Reset lays a Fold out for the
// next traversal and keeps its storage.
type Fold struct {
	tallies [][]Tally  // [worker][slot]
	slots   []foldSlot // read-only while the traversal runs
}

// foldSlot is one slot's layout and distance row.
type foldSlot struct {
	radius  int
	targets []int       // nil: none
	index   map[int]int // TargetIndex(targets), maybe shared with other slots
	row     []int32     // depth per target position
}

// Reset lays f out for a traversal of slots sources by workers workers:
// zero tallies, no radius, no targets. It drops the previous traversal's
// targets and rows, so Reset(0, 0) releases them.
func (f *Fold) Reset(workers, slots int) {
	clear(f.slots)
	f.tallies = slices.Grow(f.tallies[:0], workers)[:workers]
	for w := range f.tallies {
		f.tallies[w] = slices.Grow(f.tallies[w][:0], slots)[:slots]
		clear(f.tallies[w])
	}
	f.slots = slices.Grow(f.slots[:0], slots)[:slots]
	for i := range f.slots {
		f.slots[i].radius = -1
	}
}

// SetRadius makes Tally(slot).InRadius count the discoveries within r hops.
func (f *Fold) SetRadius(slot, r int) { f.slots[slot].radius = r }

// DepthBound is how many levels the traversal must run for every slot's
// answer: 0 (unbounded) while any slot has no radius, else the largest
// radius but at least 1, so a 0-hop slot's level is run and no further.
func (f *Fold) DepthBound() int {
	bound := 1
	for _, s := range f.slots {
		if s.radius < 0 {
			return 0
		}
		bound = max(bound, s.radius)
	}
	return bound
}

// TargetIndex maps each target to the position of its first occurrence.
func TargetIndex(targets []int) map[int]int {
	index := make(map[int]int, len(targets))
	for j, t := range targets {
		if _, dup := index[t]; !dup {
			index[t] = j
		}
	}
	return index
}

// SetTargets gives slot a fresh row of depths for targets. index is
// TargetIndex(targets); slots over the same targets may share it.
func (f *Fold) SetTargets(slot int, targets []int, index map[int]int) {
	row := make([]int32, len(targets))
	for j := range row {
		row[j] = NoLevel
	}
	s := &f.slots[slot]
	s.targets, s.index, s.row = targets, index, row
}

// Visit folds one discovery; it has the signature of MSPBFSEngine.Run's
// visitor. It must stay inlinable (analysis/contracts.json, must_inline),
// so that the method value f.Visit costs one indirect call per discovery,
// not two.
func (f *Fold) Visit(workerID, slot, vertex, depth int) {
	t, s := &f.tallies[workerID][slot], &f.slots[slot]
	t.DepthSum += int64(depth)
	t.Reached++
	if depth <= s.radius { // never for radius -1
		t.InRadius++
	}
	t.MaxDepth = max(t.MaxDepth, int32(depth))
	if s.index != nil {
		if j, ok := s.index[vertex]; ok {
			s.row[j] = int32(depth)
		}
	}
}

// Tally sums slot's per-worker tallies.
func (f *Fold) Tally(slot int) Tally {
	var t Tally
	for _, row := range f.tallies {
		t.DepthSum += row[slot].DepthSum
		t.Reached += row[slot].Reached
		t.InRadius += row[slot].InRadius
		t.MaxDepth = max(t.MaxDepth, row[slot].MaxDepth)
	}
	return t
}

// Distances returns slot's row once the traversal is done: each target's
// depth, NoLevel if unreached, a repeated target copying its first
// occurrence; nil without targets. The row is the caller's to keep.
func (f *Fold) Distances(slot int) []int32 {
	s := &f.slots[slot]
	for j, t := range s.targets {
		if rep := s.index[t]; rep != j {
			s.row[j] = s.row[rep]
		}
	}
	return s.row
}
