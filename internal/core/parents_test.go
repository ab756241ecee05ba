package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sched"
)

func TestDeriveParentsPath(t *testing.T) {
	g := PathGraph(6)
	levels := ReferenceLevels(g, 2)
	parents := DeriveParents(g, levels, nil)
	// Source is its own parent; everyone else points one hop toward 2.
	want := []int64{1, 2, 2, 2, 3, 4}
	for v, p := range parents {
		if p != want[v] {
			t.Errorf("parent[%d] = %d, want %d", v, p, want[v])
		}
	}
}

func TestDeriveParentsUnreached(t *testing.T) {
	g := Disconnected()
	levels := ReferenceLevels(g, 0)
	parents := DeriveParents(g, levels, nil)
	for v := 100; v < 300; v++ {
		if parents[v] != NoParent {
			t.Fatalf("unreached vertex %d has parent %d", v, parents[v])
		}
	}
}

func TestDeriveParentsParallelMatchesSequential(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(10, 3))
	src := RandomSources(g, 1, 1)[0]
	levels := ReferenceLevels(g, src)
	seq := DeriveParents(g, levels, nil)
	pool := sched.NewPool(3)
	defer pool.Close()
	par := DeriveParents(g, levels, pool)
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("parent[%d]: sequential %d, parallel %d", v, seq[v], par[v])
		}
	}
}

func TestValidateGraph500AcceptsAllAlgorithms(t *testing.T) {
	g := gen.Kronecker(gen.Graph500Params(10, 4))
	src := RandomSources(g, 1, 2)[0]
	runs := map[string][]int32{
		"reference": ReferenceLevels(g, src),
		"smspbfs":   SMSPBFS(g, src, BitState, Options{Workers: 2, RecordLevels: true}).Levels,
		"beamer":    Beamer(g, src, BeamerGAPBS, Options{RecordLevels: true}).Levels,
		"queue":     QueueBFS(g, src, Options{Workers: 2, RecordLevels: true}).Levels,
		"mspbfs":    MSPBFS(g, []int{src}, Options{Workers: 2, RecordLevels: true}).Levels[0],
	}
	for name, levels := range runs {
		parents := DeriveParents(g, levels, nil)
		if err := ValidateGraph500(g, src, levels, parents); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateGraph500Rejections(t *testing.T) {
	g := PathGraph(5)
	levels := ReferenceLevels(g, 0)
	good := DeriveParents(g, levels, nil)

	corrupt := func(mutate func(l []int32, p []int64)) error {
		l := append([]int32(nil), levels...)
		p := append([]int64(nil), good...)
		mutate(l, p)
		return ValidateGraph500(g, 0, l, p)
	}

	cases := []struct {
		name   string
		mutate func(l []int32, p []int64)
		substr string
	}{
		{"source level", func(l []int32, p []int64) { l[0] = 1 }, "level"},
		{"source parent", func(l []int32, p []int64) { p[0] = 3 }, "parent"},
		{"visited without parent", func(l []int32, p []int64) { p[2] = NoParent }, "visited"},
		{"parent without level", func(l []int32, p []int64) { l[4] = NoLevel }, ""},
		{"non-edge tree link", func(l []int32, p []int64) { p[3] = 0 }, "not in graph"},
		{"level jump", func(l []int32, p []int64) { l[4] = 9; p[4] = 3 }, ""},
		{"out of range parent", func(l []int32, p []int64) { p[3] = 99 }, "out-of-range"},
	}
	for _, c := range cases {
		if err := corrupt(c.mutate); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		} else if c.substr != "" && !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.substr)
		}
	}

	// Mismatched array lengths.
	if err := ValidateGraph500(g, 0, levels[:3], good); err == nil {
		t.Error("short levels array accepted")
	}
}

// Property: derived parents validate for random graphs and sources, across
// the parallel algorithms.
func TestQuickParentsValidate(t *testing.T) {
	f := func(seed uint16) bool {
		g := gen.Uniform(200, 4, uint64(seed)+99)
		srcs := RandomSources(g, 1, uint64(seed)+1)
		if len(srcs) == 0 {
			return true
		}
		src := srcs[0]
		res := SMSPBFS(g, src, ByteState, Options{Workers: 2, RecordLevels: true})
		parents := DeriveParents(g, res.Levels, nil)
		return ValidateGraph500(g, src, res.Levels, parents) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLevelLipschitzInvariant checks the BFS level triangle inequality on
// every algorithm: adjacent vertices' levels differ by at most 1, and all
// vertices of the source's component are labeled. This is the invariant
// ValidateGraph500 rule 5 formalizes; testing it directly on multi-source
// runs covers the per-bit semantics too.
func TestLevelLipschitzInvariant(t *testing.T) {
	g := gen.LDBC(gen.LDBCDefaults(1000, 5))
	sources := RandomSources(g, 66, 3)
	res := MSPBFS(g, sources, Options{Workers: 2, RecordLevels: true})
	for i := range sources {
		levels := res.Levels[i]
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(v) {
				lv, lu := levels[v], levels[u]
				if (lv == NoLevel) != (lu == NoLevel) {
					t.Fatalf("source #%d: edge (%d,%d) crosses visited boundary", i, v, u)
				}
				if lv == NoLevel {
					continue
				}
				if d := lv - lu; d < -1 || d > 1 {
					t.Fatalf("source #%d: edge (%d,%d) spans levels %d..%d", i, v, u, lu, lv)
				}
			}
		}
	}
}
