package main

import (
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestWriteFormats(t *testing.T) {
	g := gen.Uniform(100, 4, 2)
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
