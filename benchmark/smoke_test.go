package main

import (
	"io"
	"testing"
)

// The -smoke profile runs every workload end to end at scale 10 with one
// 0.3 s window: it proves the harness, the oracle and the traced window
// work, and measures nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, sp := range specs {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			if trace == 0 && sp.name != "serve-ingest" {
				continue // the traced run covers the untraced path too
			}
			o := options{workload: sp.name, seed: 20170321, seconds: 1, trace: trace, smoke: true, out: out}
			res, err := runWorkload(o, io.Discard)
			if err != nil {
				t.Fatalf("%s -trace %d: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct %v, %d failed of %d", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s -trace %d: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s -trace %d: metric %s missing", sp.name, trace, d.name)
				}
			}
			if trace == 0 {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// A wrong expected answer must fail the run: the oracle is live.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	sp, _ := findSpec("serve-saturated")
	sp.scale = smokeScale
	r, err := setUp(sp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	o := options{seconds: 1, smoke: true}
	tl := plan(o)
	r.prepare(tl.total())
	for i := range r.want {
		r.want[i].visited++
		r.want[i].count++
		r.want[i].closeness *= 2
		r.want[i].reachable = !r.want[i].reachable
	}
	samples, bounds, _ := r.run(tl, false)
	w := gather(samples, 1, tl, bounds)
	if w.attempted == 0 || w.failed != w.attempted {
		t.Errorf("%d of %d ops failed against a falsified oracle, want all", w.failed, w.attempted)
	}
}
