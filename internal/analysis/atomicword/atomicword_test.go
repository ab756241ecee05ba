package atomicword_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/atomicword"
)

func TestAtomicWord(t *testing.T) {
	analysistest.Run(t, "testdata", atomicword.Analyzer, "a", "internal/bitset")
}

// TestNoCAS runs the golden of the former nocas pass: the //bfs:nocas rule
// now lives in atomicword.
func TestNoCAS(t *testing.T) {
	analysistest.Run(t, "testdata", atomicword.Analyzer, "nocas")
}
