// Worker-owned frontier shadows: the scatter substrate that removes CAS
// from the top-down hot loop.
//
// The shared-next design (AtomicOrVertex per edge) makes every frontier
// scatter a potential cache-line ping between workers. Shadows invert the
// ownership: during the scatter phase each worker writes a private,
// full-length shadow of the next-frontier words with plain stores (the
// //bfs:singlewriter convention — the slab has exactly one writer for the
// phase's lifetime). Worker 0 needs no shadow: it writes the canonical
// array directly, since within the phase nobody else touches it. At the
// phase barrier the canonical array is published by a parallel OR-merge:
// the vertex space is striped across workers at word-aligned borders
// (numa.AlignedRanges, the same partitioning internal/cluster uses), and
// each stripe's owner folds every shadow's stripe into the canonical words
// — again plain stores, again exactly one writer per word. No word is ever
// written by two workers without an intervening barrier, so the whole
// scatter/merge protocol is CAS-free.
//
// The merge doubles as the scrub: a folded shadow word is zeroed in place,
// so outside a scatter→merge window every shadow is all-zero and the slabs
// need no per-iteration memset.
package bitset

import "fmt"

// Shadows is the per-worker shadow set for one canonical word slab
// (a State's words, a Bitmap's words, or a cluster shard's local next).
// It is sized once per engine shell and reused across batches.
type Shadows struct {
	// slabs[w-1] is worker w's private scatter target (worker 0 writes the
	// canonical slab directly). Empty when workers == 1: the solo worker is
	// the canonical writer and merge is a no-op.
	slabs []shadowSlab
	// merge[w] accumulates stripe-merge accounting for stripe owner w,
	// drained into flight records between iterations.
	merge   []mergeCell
	slabLen int
	workers int
}

// shadowSlab is one worker's private scatter slab. The header is padded to
// a full cache line so the slice headers of neighboring workers never
// share a line (the slab *contents* are written by exactly one worker, but
// the headers sit side by side in the Shadows struct).
//
//bfs:perworker
type shadowSlab struct {
	words []uint64
	_     [40]byte
}

// mergeCell is one stripe owner's merge accounting, padded like the
// kernels' padCounter so concurrent owners' increments do not false-share.
//
//bfs:perworker
type mergeCell struct {
	folded int64 // nonzero shadow words folded into the canonical stripe
	_      [56]byte
}

// NewShadows builds the shadow set for a canonical slab of slabLen words
// and the given worker count.
func NewShadows(slabLen, workers int) *Shadows {
	if workers < 1 {
		panic("bitset: shadows need at least one worker")
	}
	if slabLen < 0 {
		panic("bitset: negative shadow slab length")
	}
	s := &Shadows{
		slabs:   make([]shadowSlab, workers-1),
		merge:   make([]mergeCell, workers),
		slabLen: slabLen,
		workers: workers,
	}
	for i := range s.slabs {
		s.slabs[i].words = make([]uint64, slabLen)
	}
	return s
}

// Workers returns the worker count the shadow set was sized for.
func (s *Shadows) Workers() int { return s.workers }

// SlabLen returns the canonical slab length in words.
func (s *Shadows) SlabLen() int { return s.slabLen }

// Writer returns the slab worker workerID scatters into during the current
// phase: the canonical slab for worker 0 (it owns it for the phase — no
// one else writes canonical words before the merge barrier), the worker's
// private shadow otherwise. The returned slice is written with plain
// stores under //bfs:singlewriter.
func (s *Shadows) Writer(workerID int, canonical []uint64) []uint64 {
	if workerID == 0 {
		return canonical
	}
	return s.slabs[workerID-1].words
}

// MergeRange folds every shadow's words in [wordLo, wordHi) into the
// canonical slab and zeroes the folded shadow words (the merge is the
// scrub). The caller must ensure [wordLo, wordHi) lies inside owner's
// stripe and that no scatter runs concurrently; under that protocol each
// canonical and shadow word in the range has exactly one writer.
// It returns the number of nonzero shadow words folded.
//
//bfs:singlewriter stripe owner is the only writer of its canonical and shadow words between barriers
func (s *Shadows) MergeRange(owner int, canonical []uint64, wordLo, wordHi int) int64 {
	if wordLo < 0 || wordHi > s.slabLen || wordLo > wordHi {
		panic(fmt.Sprintf("bitset: merge range [%d,%d) outside slab of %d words", wordLo, wordHi, s.slabLen))
	}
	cw := canonical[wordLo:wordHi]
	var folded int64
	for si := range s.slabs {
		sw := s.slabs[si].words[wordLo:wordHi]
		if len(sw) < len(cw) {
			// BCE hint: shadows share the canonical slab length by
			// construction; pinning it here keeps the fold loop free of
			// per-word bounds checks.
			panic("bitset: shadow shorter than canonical slab")
		}
		//bfs:hot stripe OR-merge: runs per canonical word per iteration, must not allocate
		for i := range cw {
			v := sw[i]
			if v == 0 {
				continue
			}
			folded++
			sw[i] = 0
			cw[i] |= v
		}
	}
	s.merge[owner].folded += folded
	return folded
}

// MergeCounts appends each stripe owner's cumulative folded-word count
// (since the last ResetMergeCounts) to dst and returns it.
func (s *Shadows) MergeCounts(dst []int64) []int64 {
	for i := range s.merge {
		dst = append(dst, s.merge[i].folded)
	}
	return dst
}

// FoldedWords returns the total folded-word count across owners.
func (s *Shadows) FoldedWords() int64 {
	var t int64
	for i := range s.merge {
		t += s.merge[i].folded
	}
	return t
}

// ResetMergeCounts zeroes the per-owner merge accounting.
func (s *Shadows) ResetMergeCounts() {
	for i := range s.merge {
		s.merge[i].folded = 0
	}
}

// AllClear reports whether every shadow word is zero — the invariant that
// holds outside a scatter→merge window (the merge zeroes what it folds).
// Used by the bfsdebug invariant layer and the arena scrub checks.
func (s *Shadows) AllClear() bool {
	for si := range s.slabs {
		for _, w := range s.slabs[si].words {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// MemoryBytes returns the size of all shadow slabs in bytes.
func (s *Shadows) MemoryBytes() int64 {
	return int64(len(s.slabs)) * int64(s.slabLen) * 8
}
