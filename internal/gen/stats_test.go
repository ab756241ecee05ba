package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(graph.FromEdges(0, nil))
	if st.Vertices != 0 || st.Edges != 0 {
		t.Errorf("%+v", st)
	}
	st = Analyze(graph.FromEdges(5, nil))
	if st.AvgDegree != 0 || st.GiniDegree != 0 {
		t.Errorf("edgeless stats: %+v", st)
	}
}

func TestPowerLawAlphaRecoversExponent(t *testing.T) {
	// The configuration-model generator's exponent, and a steeper one
	// built here the same way, should come back as MLE estimates in the
	// right neighborhood and in the right order. The truncation and
	// simple-graph projection bias the estimate, so the tolerance is loose
	// but still tight enough to catch a broken generator or estimator.
	const steep = 2.5
	var prev float64
	for _, c := range []struct {
		want float64
		g    *graph.Graph
	}{
		{powerLawExponent, PowerLaw(30000, 7)},
		{steep, configurationModel(30000, steep, 7)},
	} {
		got, xmin := PowerLawAlphaMLE(c.g, 4)
		if got == 0 {
			t.Fatalf("exponent %v: estimator returned no estimate (xmin %d)", c.want, xmin)
		}
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("exponent %v: estimated %.2f (xmin %d)", c.want, got, xmin)
		}
		if got <= prev {
			t.Errorf("exponent %v: estimated %.2f, not above the shallower fixture's %.2f", c.want, got, prev)
		}
		t.Logf("exponent %v: estimated %.2f (xmin %d)", c.want, got, xmin)
		prev = got
	}
}

// configurationModel pairs random stubs of degrees drawn from a power law
// with the given exponent, truncated to [2, n/8]: PowerLaw's construction
// at an exponent of the caller's choosing.
func configurationModel(n int, alpha float64, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	lo, hi := math.Pow(2, 1-alpha), math.Pow(float64(n/8), 1-alpha)
	var stubs []graph.VertexID
	for v := 0; v < n; v++ {
		d := int(math.Pow(lo+r.Float64()*(hi-lo), 1/(1-alpha)))
		for i := 0; i < min(max(d, 2), n/8); i++ {
			stubs = append(stubs, graph.VertexID(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	return graph.FromPairs(n, stubs[:len(stubs)&^1])
}

func TestPowerLawAlphaUniformIsNotHeavyTailed(t *testing.T) {
	// A uniform random graph has a Poisson-like degree tail; its fitted
	// "alpha" must come out much steeper than a real power law's ~2.
	g := Uniform(20000, 8, 3)
	alpha, _ := PowerLawAlphaMLE(g, 8)
	if alpha != 0 && alpha < 3 {
		t.Errorf("uniform graph fitted alpha %.2f; expected steep (>3) or no fit", alpha)
	}
}

func TestGiniDegreeOrdering(t *testing.T) {
	uniform := Analyze(Uniform(5000, 8, 1)).GiniDegree
	skewed := Analyze(PowerLaw(5000, 2)).GiniDegree
	if skewed <= uniform {
		t.Errorf("power-law Gini %.3f not above uniform %.3f", skewed, uniform)
	}
	if uniform < 0 || uniform > 1 || skewed < 0 || skewed > 1 {
		t.Errorf("Gini out of range: %v %v", uniform, skewed)
	}
}

func TestClusteringOrdering(t *testing.T) {
	collab := Analyze(Collaboration(3000, 20, 3))
	uniform := Analyze(Uniform(3000, 20, 3))
	if collab.ClusteringSample <= uniform.ClusteringSample {
		t.Errorf("collaboration clustering %.3f not above uniform %.3f",
			collab.ClusteringSample, uniform.ClusteringSample)
	}
}

func TestAnalyzeKroneckerShape(t *testing.T) {
	st := Analyze(Kronecker(Graph500Params(12, 4)))
	if st.LargestComponentFrac < 0.5 {
		t.Errorf("Kronecker giant component fraction %.2f", st.LargestComponentFrac)
	}
	if st.GiniDegree < 0.3 {
		t.Errorf("Kronecker degree Gini %.2f; expected skewed", st.GiniDegree)
	}
	if st.MaxDegree <= int(st.AvgDegree) {
		t.Error("max degree not above average")
	}
}
