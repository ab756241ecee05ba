package core

import (
	"sync"
	"testing"

	"repro/internal/gen"
)

// The engine race tests hammer ONE shared engine from many goroutines
// running different algorithms at once. Under -race this checks the free
// lists' locking; under the plain build it checks that exclusive checkout
// really is exclusive — two traversals sharing a pool or a state triple
// produce wrong levels, not just races.

func TestEngineConcurrentMixedAlgorithms(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 4))
	sources := RandomSources(g, 16, 9)
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = ReferenceLevels(g, s)
	}

	e := NewEngine()
	defer e.Close()

	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			opt := Options{Workers: 2, RecordLevels: true, Engine: e}
			for round := 0; round < rounds; round++ {
				switch (c + round) % 5 {
				case 0:
					res := MSPBFS(g, sources, opt)
					for i := range res.Sources {
						CheckLevels(t, "mspbfs", res.Levels[i], want[i])
					}
				case 1:
					res := SMSPBFS(g, sources[c], BitState, opt)
					CheckLevels(t, "smspbfs", res.Levels, want[c])
				case 2:
					res := MSBFS(g, sources, opt)
					for i := range res.Sources {
						CheckLevels(t, "msbfs", res.Levels[i], want[i])
					}
				case 3:
					res := IBFS(g, sources, opt)
					for i := range res.Sources {
						CheckLevels(t, "ibfs", res.Levels[i], want[i])
					}
				case 4:
					res := Beamer(g, sources[c], BeamerGAPBS, opt)
					CheckLevels(t, "beamer", res.Levels, want[c])
				}
			}
		}(c)
	}
	wg.Wait()

	if st := e.Stats(); st.Borrowed != 0 {
		t.Errorf("borrowed = %d after all goroutines joined, want 0", st.Borrowed)
	}
}

// TestEngineConcurrentWithClose races traversals against Close. Close must
// degrade the engine to plain allocation, never crash a run in flight.
func TestEngineConcurrentWithClose(t *testing.T) {
	g := gen.Uniform(1000, 6, 7)
	sources := RandomSources(g, 8, 3)
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = ReferenceLevels(g, s)
	}

	e := NewEngine()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			opt := Options{Workers: 2, RecordLevels: true, Engine: e}
			for round := 0; round < 6; round++ {
				res := MSPBFS(g, sources, opt)
				for i := range res.Sources {
					CheckLevels(t, "mspbfs-vs-close", res.Levels[i], want[i])
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Close() // races the traversals on purpose
	}()
	wg.Wait()
	e.Close()

	if st := e.Stats(); st.Borrowed != 0 {
		t.Errorf("borrowed = %d after close race, want 0", st.Borrowed)
	}
}
