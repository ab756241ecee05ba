package core

import (
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestEngineBorrowReleaseStress hammers the engine's borrow/release surface
// from many goroutines, including the error paths the arenarelease vet pass
// exists to protect: a release must happen on every exit — normal return,
// early return, and panic unwinding — and the idempotent BorrowPool release
// closure must tolerate being called more than once, concurrently with
// fresh borrows. Run under -race this checks the free-list locking; in any
// build the final Borrowed==0 check proves no path leaked an artifact.
func TestEngineBorrowReleaseStress(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	const n = 1 << 12
	const goroutines = 8
	const rounds = 32
	g := gen.Uniform(n, 4, 7)

	// borrowThenFail models the guarded kernel prologue: a pool checked
	// out, released by a defer, then a failure mid-phase. The defer must
	// hand it back during unwinding.
	borrowThenFail := func() {
		_, release := e.BorrowPool(1)
		defer release()
		panic("phase failed after borrowing")
	}

	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				switch (c + round) % 3 {
				case 0:
					// Happy path: a kernel shell and its pool checked
					// out, run, and parked again.
					k := NewSMSPBFSEngine(g, BitState, Options{Workers: 1, Engine: e})
					k.Run(round % n)
					k.Close()
				case 1:
					// Pool checkout with a double-released closure: the
					// second call must be a no-op, not a double check-in.
					pool, release := e.BorrowPool(2)
					if got := pool.Workers(); got != 2 {
						t.Errorf("borrowed pool has %d workers, want 2", got)
					}
					release()
					release()
				case 2:
					// Error path: panic after borrowing; the deferred
					// releases must balance the books during unwinding.
					func() {
						defer func() {
							if recover() == nil {
								t.Error("borrowThenFail did not panic")
							}
						}()
						borrowThenFail()
					}()
				}
			}
		}(c)
	}
	wg.Wait()

	if st := e.Stats(); st.Borrowed != 0 {
		t.Errorf("borrowed = %d after stress, want 0 (leaked borrow on some path)", st.Borrowed)
	}
}
