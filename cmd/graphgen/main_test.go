package main

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestGenerateAllTypes(t *testing.T) {
	for _, typ := range []string{"kronecker", "kg0", "ldbc", "uniform", "twitter", "web", "hollywood"} {
		g, err := generate(typ, 8, 500, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", typ)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", typ, err)
		}
	}
	if _, err := generate("nope", 8, 500, 8, 1); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestWriteFormats(t *testing.T) {
	g, err := generate("uniform", 0, 100, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	bin := filepath.Join(dir, "g.bin")
	if err := write(bin, "binary", g); err != nil {
		t.Fatal(err)
	}
	if g2, err := graph.LoadFile(bin); err != nil || g2.NumEdges() != g.NumEdges() {
		t.Errorf("binary round trip: %v", err)
	}

	el := filepath.Join(dir, "g.el")
	if err := write(el, "edgelist", g); err != nil {
		t.Fatal(err)
	}

	if err := write(filepath.Join(dir, "g.x"), "xml", g); err == nil {
		t.Error("unknown format accepted")
	}
}
