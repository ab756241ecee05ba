package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name the benchmark can emit is declared in BENCHMARK.json with the
// same unit, and the other way round, so the driver finds each metric it
// was promised.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	declared := map[string]string{}
	for _, m := range bj.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		declared[m.Name] = m.Unit
	}
	emitted := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(declared) != len(emitted) {
		t.Errorf("%d metrics declared, %d emitted", len(declared), len(emitted))
	}
	seen := map[string]bool{}
	for _, d := range emitted {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q emitted twice", d.name)
		}
		seen[d.name] = true
		if unit, ok := declared[d.name]; !ok {
			t.Errorf("metric %q is emitted but not in BENCHMARK.json", d.name)
		} else if unit != d.unit {
			t.Errorf("metric %q: unit %q emitted, %q declared", d.name, d.unit, unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (or their reasons differ)", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
}
