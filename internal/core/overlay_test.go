package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// splitGraphOverlay builds the test harness for the fused overlay scans:
// a random graph's edges are split into a base CSR and an overlay holding
// the remainder, plus the compacted CSR holding everything. Every kernel
// must produce identical levels over (base + overlay) and over compacted.
func splitGraphOverlay(n, m int, seed int64) (base *graph.Graph, ov *graph.Overlay, compacted *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	for len(edges) < m {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]graph.VertexID{u, v}] {
			continue
		}
		seen[[2]graph.VertexID{u, v}] = true
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	cut := len(edges) * 2 / 3
	base = graph.FromEdges(n, edges[:cut])
	compacted = graph.FromEdges(n, edges)
	ov = graph.NewOverlay(n).WithEdges(edges[cut:], nil)
	return base, ov, compacted
}

// TestBaselineGuardsFire pins the contract that the paper's baselines
// refuse an overlay instead of silently traversing the base graph alone.
func TestBaselineGuardsFire(t *testing.T) {
	base, ov, _ := splitGraphOverlay(64, 128, 3)
	opt := Options{Overlay: ov}
	for name, run := range map[string]func(){
		"Beamer":       func() { Beamer(base, 0, BeamerGAPBS, opt) },
		"IBFS":         func() { IBFS(base, []int{0}, opt) },
		"MSBFS":        func() { MSBFS(base, []int{0}, opt) },
		"MSBFSDirect":  func() { MSBFSDirect(base, []int{0}, opt) },
		"MSBFSPerCore": func() { MSBFSPerCore(base, []int{0}, opt) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted Options.Overlay without panicking", name)
				}
			}()
			run()
		}()
	}
}
