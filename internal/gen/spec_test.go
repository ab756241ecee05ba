package gen

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSpecRejects pins every spec that misbehaved before the grammar
// checked its arguments — two panicked inside the generator, one ran the
// process out of memory, one built seed 42 in silence and one was
// accepted — plus the malformed shapes, to errors returned before the
// build allocates anything.
func TestSpecRejects(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
		arcs       bool // the endpoint bound, also an ErrTooManyArcs
	}{
		{spec: "kron:scale=8,edgefactor=-1", want: "edgefactor=-1 is not a non-negative 63-bit integer"},
		{spec: "kron:scale=40", want: "scale 40 outside [0, 32]"},
		{spec: "uniform:n=10,degree=100000000000", want: "n 10 at degree 100000000000", arcs: true},
		{spec: "kron:scale=8,seeed=5", want: `unknown key "seeed"`},
		{spec: "uniform:n=100,degree=-3", want: "degree=-3 is not"},
		{spec: "kron:scale=32", want: "edge factor 16 at scale 32", arcs: true},
		{spec: "kron:scale=31,edgefactor=1", want: "edge factor 1 at scale 31", arcs: true},
		{spec: "uniform:n=4294967296,seed=18", want: "n 4294967296 at degree 16", arcs: true},
		{spec: "powerlaw:n=2147483648", want: "n 2147483648 at degree 2", arcs: true},
		{spec: "powerlaw:n=0", want: "n 0 outside"},
		{spec: "collab:n=65537,degree=65535", want: "n 65537 at degree 65535", arcs: true},
		{spec: "social:n=0", want: "n 0 outside"},
		{spec: "web:n=4294967297,degree=0", want: "n 4294967297 outside"},
		{spec: "nocolon", want: "SCHEME:ARGS"},
		{spec: "warp:n=1", want: `unknown scheme "warp"`},
		{spec: "kron:scale=x", want: "scale=x is not"},
		{spec: "web:n=8,degree=9223372036854775808", want: "degree=9223372036854775808 is not"},
		{spec: "kron:seed=1", want: "kron needs scale"},
		{spec: "kron:", want: "kron needs scale"},
		{spec: "uniform:n=-5", want: "n=-5 is not"},
		{spec: "kron:scale=8,seed=-1", want: "seed=-1 is not a non-negative 64-bit integer"},
		{spec: "uniform:n=99999999999999999999", want: "n=99999999999999999999 is not"},
		{spec: "kron:scale=8,junk", want: `malformed argument "junk"`},
		{spec: "kron:scale=8,,seed=1", want: `malformed argument ""`},
		{spec: "kron:scale=8,scale=9", want: `"scale" given twice`},
		{spec: "file:", want: "needs a path"},
	} {
		var err error
		bytes := totalAlloc(func() { _, err = Build(tc.spec) })
		if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%q): %v; want an ErrBadSpec naming %q", tc.spec, err, tc.want)
		}
		if errors.Is(err, graph.ErrTooManyArcs) != tc.arcs {
			t.Errorf("Build(%q): %v; ErrTooManyArcs %v, want %v", tc.spec, err, !tc.arcs, tc.arcs)
		}
		if bytes > 4096 {
			t.Errorf("Build(%q) allocated %d B before refusing", tc.spec, bytes)
		}
	}
}

func TestSpecCanonical(t *testing.T) {
	for spec, want := range map[string]string{
		"kron:scale=16":                          "kron:scale=16,edgefactor=16,seed=42",
		"kron:seed=7,scale=0":                    "kron:scale=0,edgefactor=16,seed=7",
		"uniform:n=5":                            "uniform:n=5,degree=16,seed=42",
		"social:n=5":                             "social:n=5,degree=5,seed=42",
		"powerlaw:seed=3,n=5":                    "powerlaw:n=5,seed=3",
		"web:degree=0,n=1":                       "web:n=1,degree=0,seed=42",
		"collab:n=2":                             "collab:n=2,degree=16,seed=42",
		"file:a,b=c:d.bin":                       "file:a,b=c:d.bin",
		"powerlaw:n=2147483647":                  "powerlaw:n=2147483647,seed=42",
		"collab:n=1":                             "collab:n=1,degree=16,seed=42",
		"uniform:n=65537,degree=65535":           "uniform:n=65537,degree=65535,seed=42",
		"kron:seed=18446744073709551615,scale=1": "kron:scale=1,edgefactor=16,seed=18446744073709551615",
		"kron:scale=32,edgefactor=0":             "kron:scale=32,edgefactor=0,seed=42",
		"kron:scale=30,edgefactor=1":             "kron:scale=30,edgefactor=1,seed=42",
		"uniform:n=4294967296,degree=0":          "uniform:n=4294967296,degree=0,seed=42",
	} {
		if s, err := ParseSpec(spec); err != nil || s.String() != want {
			t.Errorf("ParseSpec(%q) = %s, %v; want %s", spec, s, err, want)
		}
	}
}

// TestSchemesBuildValidGraphs builds every scheme once, small.
func TestSchemesBuildValidGraphs(t *testing.T) {
	for _, spec := range []string{
		"kron:scale=8,edgefactor=8,seed=1", "kron:scale=0", "uniform:n=500,degree=8,seed=1",
		"uniform:n=1", "social:n=500,seed=1", "powerlaw:n=500,seed=1", "web:n=500,degree=8,seed=1",
		"web:n=1", "collab:n=500,degree=8,seed=1", "collab:n=2,degree=1", "collab:n=1",
	} {
		g, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", spec)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

// TestPowerLawStubBound: powerLaw bounds the stub count its seed
// samples, not the worst case n·n/8. The least bound that builds lies
// between the graph's arcs and that worst case; one stub under it is an
// ErrTooManyArcs found before anything is allocated, and at it the build
// is PowerLaw's.
func TestPowerLawStubBound(t *testing.T) {
	const n, seed = 5000, 3
	want := PowerLaw(n, seed)
	sum := uint64(sort.Search(n*n/8, func(most int) bool {
		_, err := powerLaw(n, seed, uint64(most))
		return err == nil
	}))
	if arcs := uint64(2 * want.NumEdges()); sum < arcs || sum >= n*n/8 {
		t.Fatalf("least bound %d; want one in [%d, %d)", sum, arcs, n*n/8)
	}
	var err error
	bytes := totalAlloc(func() { _, err = powerLaw(n, seed, sum-1) })
	if !errors.Is(err, graph.ErrTooManyArcs) || bytes > 4096 {
		t.Errorf("bound %d: %v after %d B; want an ErrTooManyArcs before any allocation", sum-1, err, bytes)
	}
	if g, err := powerLaw(n, seed, sum); err != nil || csrHash(g) != csrHash(want) {
		t.Errorf("bound %d: %v, or a graph other than PowerLaw's", sum, err)
	}
}

// TestSpecsBuildFormerGraphs maps every graph a former front door built —
// graphgen's -type values at their flag defaults, bfsrun's default and
// every bfsbench stand-in, full and -quick, at its default seed — to the
// spec that names it now, and holds the two builds to one hash.
func TestSpecsBuildFormerGraphs(t *testing.T) {
	const s = 20170321 // bfsbench's default seed
	type row struct {
		former, spec string
		direct       func() *graph.Graph
		large        bool // skipped under -short
	}
	kron := func(former string, scale, ef int, seed uint64, large bool) row {
		return row{former, fmt.Sprintf("kron:scale=%d,edgefactor=%d,seed=%d", scale, ef, seed),
			func() *graph.Graph { return Kronecker(KroneckerParams{Scale: scale, EdgeFactor: ef, Seed: seed}) }, large}
	}
	rows := []row{
		kron("graphgen -type kronecker, bfsrun", 16, 16, 42, false),
		kron("graphgen -type kg0", 16, 16, 42, false),
		{"graphgen -type ldbc", "social:n=100000", func() *graph.Graph { return LDBC(100000, 5, 42) }, false},
		{"graphgen -type uniform", "uniform:n=100000", func() *graph.Graph { return Uniform(100000, 16, 42) }, false},
		{"graphgen -type twitter", "powerlaw:n=100000", func() *graph.Graph { return PowerLaw(100000, 42) }, false},
		{"graphgen -type twitter -n 500000", "powerlaw:n=500000", func() *graph.Graph { return PowerLaw(500000, 42) }, true},
		{"graphgen -type web", "web:n=100000", func() *graph.Graph { return Web(100000, 16, 42) }, false},
		{"graphgen -type hollywood", "collab:n=100000", func() *graph.Graph { return Collaboration(100000, 16, 42) }, false},
		kron("bfsbench Kronecker -quick", 10, 16, s, false),
		kron("bfsbench Kronecker -quick, large", 12, 16, s, false),
		kron("bfsbench Kronecker small", 14, 16, s, false),
		kron("bfsbench Kronecker large", 16, 16, s, true),
		kron("bfsbench KG0 -quick", 9, 32, s+1, false),
		kron("bfsbench KG0", 12, 64, s+1, false),
		{"bfsbench LDBC small -quick", "social:n=3000,seed=20170323", func() *graph.Graph { return LDBC(3000, 5, s+2) }, false},
		{"bfsbench LDBC large -quick", "social:n=8000,seed=20170324", func() *graph.Graph { return LDBC(8000, 5, s+3) }, false},
		{"bfsbench LDBC small", "social:n=30000,seed=20170323", func() *graph.Graph { return LDBC(30000, 5, s+2) }, false},
		{"bfsbench LDBC large", "social:n=120000,seed=20170324", func() *graph.Graph { return LDBC(120000, 5, s+3) }, true},
		{"bfsbench Hollywood -quick", "collab:n=3000,degree=56,seed=20170325", func() *graph.Graph { return Collaboration(3000, 56, s+4) }, false},
		{"bfsbench Hollywood", "collab:n=30000,degree=56,seed=20170325", func() *graph.Graph { return Collaboration(30000, 56, s+4) }, true},
		{"bfsbench web -quick", "web:n=6000,degree=20,seed=20170326", func() *graph.Graph { return Web(6000, 20, s+5) }, false},
		{"bfsbench web", "web:n=80000,degree=20,seed=20170326", func() *graph.Graph { return Web(80000, 20, s+5) }, true},
		{"bfsbench Twitter -quick", "powerlaw:n=6000,seed=20170327", func() *graph.Graph { return PowerLaw(6000, s+6) }, false},
		{"bfsbench Twitter", "powerlaw:n=80000,seed=20170327", func() *graph.Graph { return PowerLaw(80000, s+6) }, false},
		{"bfsbench Fig 6/7 -quick", "social:n=8000,degree=16,seed=20170321", func() *graph.Graph { return LDBC(8000, 16, s) }, false},
		{"bfsbench Fig 6/7", "social:n=60000,degree=16,seed=20170321", func() *graph.Graph { return LDBC(60000, 16, s) }, true},
	}
	for _, r := range rows {
		if r.large && testing.Short() {
			continue
		}
		g, err := Build(r.spec)
		if err != nil {
			t.Fatalf("%s: %s: %v", r.former, r.spec, err)
		}
		if got, want := csrHash(g), csrHash(r.direct()); got != want {
			t.Errorf("%s: %s hashes to %s, the generator call to %s", r.former, r.spec, got, want)
		}
	}
}

// TestBuildFileSpecs: a file spec loads a binary CSR or a .txt/.el edge
// list; one that is missing, or a binary CSR Validate refuses, is an
// error naming the file — the relabel would panic on the first invalid
// shape and traverse the other two as the wrong graph.
func TestBuildFileSpecs(t *testing.T) {
	g := Kronecker(Graph500Params(8, 1))
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := graph.SaveFile(bin, g); err != nil {
		t.Fatal(err)
	}
	if g2, err := Build("file:" + bin); err != nil || csrHash(g2) != csrHash(g) {
		t.Errorf("binary load: %v", err)
	}
	for _, name := range []string{"g.txt", "g.el"} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveEdgeList(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if g3, err := Build("file:" + path); err != nil || g3.NumEdges() != g.NumEdges() {
			t.Errorf("edge-list load %s: %v", name, err)
		}
	}

	missing := filepath.Join(dir, "missing.bin")
	if _, err := Build("file:" + missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("missing file: error %v, want one naming %s", err, missing)
	}
	for name, bad := range map[string]*graph.Graph{
		"degree mismatch":  {Offsets: []uint32{0, 2, 3, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
		"self-loop":        {Offsets: []uint32{0, 2, 3}, Adjacency: []graph.VertexID{0, 1, 0}},
		"directed 3-cycle": {Offsets: []uint32{0, 1, 2, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
	} {
		path := filepath.Join(dir, "bad.bin")
		if err := graph.SaveFile(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := Build("file:" + path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %v, want one naming %s", name, err, path)
		}
	}
}

// FuzzGraphSpec fuzzes the check step alone; it never builds a graph. A
// spec either fails with an ErrBadSpec or parses to a canonical form that
// parses to itself.
func FuzzGraphSpec(f *testing.F) {
	for _, s := range []string{
		"kron:scale=16", "kron:scale=12,edgefactor=8,seed=7", "uniform:n=100000",
		"uniform:n=1000,degree=8", "social:n=200000", "social:n=60000,degree=16,seed=3",
		"powerlaw:n=80000,seed=7", "web:n=80000,degree=20", "collab:n=30000,degree=56",
		"file:ldbc.bin", "file:edges.txt",
		"kron:scale=8,edgefactor=-1", "kron:scale=40", "uniform:n=10,degree=100000000000",
		"kron:scale=8,seeed=5", "uniform:n=100,degree=-3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec(%q): %v, not an ErrBadSpec", spec, err)
			}
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil || again.String() != s.String() {
			t.Fatalf("ParseSpec(%q) = %s, which parses to %s, %v", spec, s, again, err)
		}
	})
}
