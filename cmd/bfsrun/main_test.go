package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestRunAllAlgorithms(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(9, 2))
	sources := core.RandomSources(g, 8, 1)
	opt := core.Options{Workers: 2}
	for _, algo := range algoNames {
		elapsed, err := run(algo, g, sources, opt, 2)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if elapsed <= 0 {
			t.Errorf("%s: elapsed %v", algo, elapsed)
		}
	}
	if _, err := run("quantum", g, sources, opt, 2); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
