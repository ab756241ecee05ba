package msbfs

import "testing"

// TestEngineCountersSettleBetweenRuns: runs that record levels leave an
// explicit engine with nothing checked out, and once the first round has
// built the kernel shells every later round is served from the arena.
// Level rows belong to the caller, so no borrow outlives its call.
func TestEngineCountersSettleBetweenRuns(t *testing.T) {
	g := GenerateKronecker(10, 8, 1)
	sources := g.RandomSources(64, 7)
	eng := NewEngine(Options{Workers: 2})
	defer eng.Close()
	opt := Options{Workers: 2, Engine: eng, RecordLevels: true}

	var firstMisses uint64
	for round := range 3 {
		g.MultiBFS(sources, opt)
		g.BFS(sources[0], opt)
		st := eng.Stats()
		if st.Borrowed != 0 {
			t.Errorf("round %d: borrowed = %d between runs, want 0", round, st.Borrowed)
		}
		if round == 0 {
			firstMisses = st.Misses
		} else if st.Misses != firstMisses {
			t.Errorf("round %d: misses = %d, want %d (the first round's)", round, st.Misses, firstMisses)
		}
	}
}
