package bitset

import (
	"math/rand"
	"sync"
	"testing"
)

func TestShadowsSoloWorkerWritesCanonical(t *testing.T) {
	s := NewShadows(64, 1)
	canon := make([]uint64, 64)
	w := s.Writer(0, canon)
	if &w[0] != &canon[0] {
		t.Fatal("solo worker must scatter straight into the canonical slab")
	}
	if s.MemoryBytes() != 0 {
		t.Fatalf("solo shadows should hold no slabs, got %d bytes", s.MemoryBytes())
	}
	if got := s.MergeRange(0, canon, 0, 64); got != 0 {
		t.Fatalf("solo merge folded %d words, want 0", got)
	}
}

func TestShadowsMergePublishesUnion(t *testing.T) {
	const slabLen, workers = 256, 4
	s := NewShadows(slabLen, workers)
	canon := make([]uint64, slabLen)
	want := make([]uint64, slabLen)

	rng := rand.New(rand.NewSource(1))
	for w := 0; w < workers; w++ {
		tgt := s.Writer(w, canon)
		for k := 0; k < 300; k++ {
			i := rng.Intn(slabLen)
			bit := uint64(1) << uint(rng.Intn(64))
			tgt[i] |= bit
			want[i] |= bit
		}
	}
	// Stripe the slab across owners at word granularity and merge.
	per := slabLen / workers
	for o := 0; o < workers; o++ {
		s.MergeRange(o, canon, o*per, (o+1)*per)
	}
	for i := range want {
		if canon[i] != want[i] {
			t.Fatalf("canonical[%d] = %#x, want %#x", i, canon[i], want[i])
		}
	}
	if !s.AllClear() {
		t.Fatal("merge must zero the folded shadow words (scrub-as-merge)")
	}
	if s.FoldedWords() == 0 {
		t.Fatal("merge accounting recorded no folded words")
	}
	counts := s.MergeCounts(nil)
	if len(counts) != workers {
		t.Fatalf("MergeCounts returned %d owners, want %d", len(counts), workers)
	}
	s.ResetMergeCounts()
	if s.FoldedWords() != 0 {
		t.Fatal("ResetMergeCounts left residue")
	}
}

// TestShadowsConcurrentScatterMergeRace is the -race stress for the stripe
// protocol: workers scatter concurrently into their own slabs (plain
// stores), a barrier, then stripe owners merge concurrently. Each bit must
// be published exactly once and the shadows must come back all-zero. Run
// with -race this proves the "exactly one writer per word per phase"
// claim; without -race it still checks the union.
func TestShadowsConcurrentScatterMergeRace(t *testing.T) {
	const slabLen, workers, rounds = 512, 8, 20
	s := NewShadows(slabLen, workers)
	canon := make([]uint64, slabLen)
	per := slabLen / workers

	for round := 0; round < rounds; round++ {
		for i := range canon {
			canon[i] = 0
		}
		expect := make([][]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				tgt := s.Writer(w, canon)
				mine := make([]uint64, slabLen)
				for k := 0; k < 500; k++ {
					i := rng.Intn(slabLen)
					bit := uint64(1) << uint(rng.Intn(64))
					tgt[i] |= bit
					mine[i] |= bit
				}
				expect[w] = mine
			}(w)
		}
		wg.Wait() // the phase barrier

		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(owner int) {
				defer wg.Done()
				s.MergeRange(owner, canon, owner*per, (owner+1)*per)
			}(w)
		}
		wg.Wait()

		for i := 0; i < slabLen; i++ {
			var want uint64
			for w := 0; w < workers; w++ {
				want |= expect[w][i]
			}
			if canon[i] != want {
				t.Fatalf("round %d: canonical[%d] = %#x, want %#x", round, i, canon[i], want)
			}
		}
		if !s.AllClear() {
			t.Fatalf("round %d: shadows not scrubbed by merge", round)
		}
	}
}

func TestShadowsMergeRangeBounds(t *testing.T) {
	s := NewShadows(16, 2)
	canon := make([]uint64, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-slab merge range must panic")
		}
	}()
	s.MergeRange(0, canon, 8, 32)
}

func TestShadowsMemoryBytes(t *testing.T) {
	// One slab per non-zero worker: worker 0 writes the canonical array.
	s := NewShadows(32, 3)
	if s.MemoryBytes() != 2*32*8 {
		t.Fatalf("MemoryBytes = %d, want %d", s.MemoryBytes(), 2*32*8)
	}
}
