package graph

import (
	"bytes"
	"testing"
)

// FuzzLoadEdgeList asserts the text loader never panics and that any graph
// it accepts satisfies the CSR invariants.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n% comment\n5 5\n"))
	f.Add([]byte("1000000 3 extra columns 4\n"))
	f.Add([]byte(""))
	f.Add([]byte("0 -1\n"))
	f.Add([]byte("nonsense\n"))
	f.Add([]byte("9223372036854775807 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, err := LoadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NumVertices() != len(ids) {
			t.Fatalf("vertex count %d != id map %d", g.NumVertices(), len(ids))
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzLoad asserts the binary loader never panics, never over-allocates on
// implausible headers, and only accepts structurally valid graphs.
func FuzzLoad(f *testing.F) {
	// A valid file as seed.
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:12])
	f.Add([]byte{})
	// Header with absurd sizes.
	absurd := append([]byte(nil), valid...)
	for i := 12; i < 28 && i < len(absurd); i++ {
		absurd[i] = 0xff
	}
	f.Add(absurd)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Loaded graphs must at least satisfy the cheap invariants the
		// loader promises (full Validate may reject asymmetric inputs the
		// loader legitimately tolerates, so check offsets/ranges only).
		n := g.NumVertices()
		if g.Offsets[0] != 0 || int(g.Offsets[n]) != len(g.Adjacency) {
			t.Fatal("loader accepted inconsistent offsets")
		}
		for v := 0; v < n; v++ {
			if g.Offsets[v] > g.Offsets[v+1] {
				t.Fatal("loader accepted non-monotone offsets")
			}
		}
		for _, u := range g.Adjacency {
			if int(u) >= n {
				t.Fatal("loader accepted out-of-range neighbor")
			}
		}
	})
}
