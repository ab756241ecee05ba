package server

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	msbfs "repro"
	"repro/internal/graph"
)

// addSpec is the static registration path of cmd/bfsd: build the spec, then
// Add it under the striped relabeling.
func addSpec(reg *Registry, name, spec string, cfg Config) (*Entry, error) {
	g, err := reg.BuildGraph(name, spec)
	if err != nil {
		return nil, err
	}
	return reg.Add(name, g, true, cfg)
}

func TestRegistrySpecs(t *testing.T) {
	cfg := Config{Workers: 2}
	reg := NewRegistry()
	defer reg.Close()

	// Generator specs.
	for _, tc := range []struct{ name, spec string }{
		{"kron", "kron:scale=8,edgefactor=8,seed=3"},
		{"uniform", "uniform:n=300,degree=6,seed=1"},
		{"social", "social:n=400,seed=2"},
	} {
		e, err := addSpec(reg, tc.name, tc.spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if e.G.NumVertices() == 0 || e.Perm == nil {
			t.Errorf("%s: n=%d perm=%v, want relabeled graph", tc.spec, e.G.NumVertices(), e.Perm != nil)
		}
	}

	// Binary CSR file spec round-trips through graphgen's format.
	g := msbfs.GenerateUniform(200, 5, 9)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := addSpec(reg, "fromfile", "file:"+path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.G.NumVertices() != 200 {
		t.Errorf("file graph n = %d, want 200", e.G.NumVertices())
	}

	// Bad specs fail with typed errors before the build, not panics, an
	// out-of-memory death or a default in place of a misspelt key.
	for _, spec := range []string{
		"nocolon", "warp:n=1", "kron:scale=x", "kron:seed=1", "uniform:n=-5", "kron:scale=8,junk",
		"kron:scale=8,edgefactor=-1", "kron:scale=40", "uniform:n=10,degree=100000000000",
		"kron:scale=8,seeed=5", "uniform:n=100,degree=-3",
	} {
		if _, err := reg.BuildGraph("bad-"+spec, spec); !errors.Is(err, msbfs.ErrBadSpec) {
			t.Errorf("spec %q: error %v, want an ErrBadSpec", spec, err)
		}
	}
	if _, err := reg.BuildGraph("missing", "file:/does/not/exist.bin"); err == nil {
		t.Error("missing file accepted")
	}

	// Duplicate names are rejected.
	if _, err := addSpec(reg, "kron", "kron:scale=8", cfg); err == nil {
		t.Error("duplicate name accepted")
	}

	names := reg.Names()
	if len(names) != 4 {
		t.Errorf("names = %v", names)
	}
}

// TestRegistryRefusesInvalidFile: a file spec that loads but is not a CSR
// Validate accepts is a build error naming the file, never a registered
// graph: the relabel panics on a row whose degree is not its in-degree,
// and serves an asymmetric CSR whose degrees agree as its transpose.
func TestRegistryRefusesInvalidFile(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	for name, g := range map[string]*graph.Graph{
		"degree mismatch":  {Offsets: []uint32{0, 2, 3, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
		"self-loop":        {Offsets: []uint32{0, 2, 3}, Adjacency: []graph.VertexID{0, 1, 0}},
		"directed 3-cycle": {Offsets: []uint32{0, 1, 2, 3}, Adjacency: []graph.VertexID{1, 2, 0}},
	} {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := graph.SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		e, err := addSpec(reg, name, "file:"+path, Config{Workers: 2})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: registered %v, error %v; want an error naming %s", name, e != nil, err, path)
		}
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("registered %v", names)
	}
}

// TestRelabelTransparency proves the external-id contract: queries use the
// caller's original vertex ids even though the registry relabels the graph
// with the striped scheme internally.
func TestRelabelTransparency(t *testing.T) {
	g := msbfs.GenerateUniform(400, 6, 5)
	cfg := Config{Workers: 2}
	reg := NewRegistry()
	defer reg.Close()
	e, err := reg.Add("relabeled", g, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Perm == nil {
		t.Fatal("expected a relabeling permutation")
	}

	for src := 0; src < 8; src++ {
		// Closeness is invariant under relabeling.
		ans, err := e.Submit(context.Background(), Query{Kind: KindCloseness, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Closeness([]int{src}, msbfs.Options{})[0]; ans.Closeness != want {
			t.Errorf("closeness(%d) = %v, original-graph %v", src, ans.Closeness, want)
		}
		// Pairwise distance is invariant under relabeling.
		tgt := (src*61 + 17) % g.NumVertices()
		ans, err = e.Submit(context.Background(), Query{Kind: KindBFS, Source: src, Targets: []int{tgt}})
		if err != nil {
			t.Fatal(err)
		}
		direct := g.BFS(src, msbfs.Options{RecordLevels: true})
		if ans.Distances[0] != direct.Levels[tgt] {
			t.Errorf("dist(%d, %d) = %d, original-graph %d", src, tgt, ans.Distances[0], direct.Levels[tgt])
		}
	}

	// Out-of-range external ids error before touching the permutation.
	if _, err := e.Submit(context.Background(), Query{Kind: KindBFS, Source: g.NumVertices()}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("out-of-range source: err = %v, want ErrBadRequest", err)
	}
	if _, err := e.Submit(context.Background(),
		Query{Kind: KindBFS, Source: 0, Targets: []int{-1}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("out-of-range target: err = %v, want ErrBadRequest", err)
	}
}

// TestRegistryHoldsOnlyPrewarmedPools: the registry's engine starts with
// no pool, so after one 2-worker registration it holds that width's pool
// alone, and the engine gauges count no stray one.
func TestRegistryHoldsOnlyPrewarmedPools(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Add("g", msbfs.GenerateUniform(200, 4, 1), true, Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	st := reg.Engine().Stats()
	if got := [3]int{st.FreePools, st.PooledWorkers, int(st.Misses)}; got != [3]int{1, 2, 1} {
		t.Errorf("FreePools, PooledWorkers, Misses = %v, want [1 2 1]", got)
	}
}

func TestRegistryDefaultGraph(t *testing.T) {
	cfg := Config{Workers: 1}
	reg := NewRegistry()
	defer reg.Close()
	if _, ok := reg.Get(""); ok {
		t.Error("empty registry resolved the default graph")
	}
	if _, err := addSpec(reg, "only", "uniform:n=100,degree=4", cfg); err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.Get(""); !ok || e.Name != "only" {
		t.Error("single graph not served as default")
	}
	if _, err := addSpec(reg, "second", "uniform:n=100,degree=4,seed=2", cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(""); ok {
		t.Error("ambiguous default graph resolved with two graphs registered")
	}
	if _, ok := reg.Get("second"); !ok {
		t.Error("named lookup failed")
	}
}
