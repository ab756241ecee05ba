package bench

import (
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// graphCache memoizes generated graphs so "all" runs and repeated benches
// do not regenerate identical inputs. Keyed by an opaque string the callers
// build from generator parameters.
var graphCache = struct {
	sync.Mutex
	m map[string]*graph.Graph
}{m: make(map[string]*graph.Graph)}

func cachedGraph(key string, build func() *graph.Graph) *graph.Graph {
	graphCache.Lock()
	if g, ok := graphCache.m[key]; ok {
		graphCache.Unlock()
		return g
	}
	graphCache.Unlock()
	// Build outside the lock: builders may recursively consult the cache
	// (striped variants fetch their base graph), and generation is slow
	// enough that holding the lock would serialize unrelated lookups. A
	// racing duplicate build is deterministic, so last-write-wins is fine.
	g := build()
	graphCache.Lock()
	graphCache.m[key] = g
	graphCache.Unlock()
	return g
}

// kronecker returns the standard Graph500 Kronecker graph at the scale,
// relabeled with the striped scheme for the given worker count unless a
// different labeling is requested by the experiment itself.
func kronecker(scale int, seed uint64) *graph.Graph {
	return cachedGraph(key("kron", scale, int(seed)), func() *graph.Graph {
		return gen.Kronecker(gen.Graph500Params(scale, seed))
	})
}

// KroneckerGraph exposes the memoized Graph500 Kronecker builder to other
// packages: internal/perf pins its scenarios to the exact graphs the
// figure/table experiments measure, so perf rows and paper figures are
// comparing the same inputs.
func KroneckerGraph(scale int, seed uint64) *graph.Graph {
	return kronecker(scale, seed)
}

// stripedKronecker is kronecker relabeled with the paper's striped scheme.
func stripedKronecker(scale, workers int, seed uint64) *graph.Graph {
	return cachedGraph(key("kron-striped", scale, workers, int(seed)), func() *graph.Graph {
		g, _ := label.Apply(kronecker(scale, seed), label.Striped,
			label.Params{Workers: workers, TaskSize: 512})
		return g
	})
}

func key(name string, parts ...int) string {
	k := name
	for _, p := range parts {
		k += "/"
		// small ints only; avoid fmt in a hot-ish path for no reason other
		// than keeping this dependency-free.
		if p < 0 {
			k += "-"
			p = -p
		}
		digits := [20]byte{}
		i := len(digits)
		for {
			i--
			digits[i] = byte('0' + p%10)
			p /= 10
			if p == 0 {
				break
			}
		}
		k += string(digits[i:])
	}
	return k
}
