package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestLoadOrGenerate(t *testing.T) {
	// Empty path generates a Kronecker graph.
	g, err := loadOrGenerate("", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 {
		t.Errorf("generated %d vertices", g.NumVertices())
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := graph.SaveFile(bin, g); err != nil {
		t.Fatal(err)
	}
	if g2, err := loadOrGenerate(bin, 0, 0); err != nil || g2.NumEdges() != g.NumEdges() {
		t.Errorf("binary load: %v", err)
	}

	// Edge-list path.
	el := filepath.Join(dir, "g.txt")
	f, err := os.Create(el)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g3, err := loadOrGenerate(el, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Errorf("edge-list load: %d edges, want %d", g3.NumEdges(), g.NumEdges())
	}

	if _, err := loadOrGenerate(filepath.Join(dir, "missing.bin"), 0, 0); err == nil {
		t.Error("missing file accepted")
	}

	// A file that loads but is not a CSR Validate accepts is an error
	// naming the file: the relabel would panic on the first and traverse
	// the other two as the wrong graph.
	for name, bad := range map[string]*graph.Graph{
		"degree mismatch":  {Offsets: []uint32{0, 2, 3, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
		"self-loop":        {Offsets: []uint32{0, 2, 3}, Adjacency: []graph.VertexID{0, 1, 0}},
		"directed 3-cycle": {Offsets: []uint32{0, 1, 2, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
	} {
		path := filepath.Join(dir, "bad.bin")
		if err := graph.SaveFile(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := loadOrGenerate(path, 0, 0); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %v, want one naming %s", name, err, path)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	g, err := loadOrGenerate("", 9, 2)
	if err != nil {
		t.Fatal(err)
	}
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
