package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// medianReport builds a report whose scenarios have the given medians
// (1 ms for every scenario not named).
func medianReport(medians map[string]int64) *Report {
	r := &Report{SchemaVersion: SchemaVersion}
	for _, name := range ScenarioNames() {
		med, ok := medians[name]
		if !ok {
			med = 1_000_000
		}
		r.Scenarios = append(r.Scenarios, Row{Name: name, SamplesNs: []int64{med}, MedianNs: med, Reps: 1})
	}
	r.Ratios = r.ratios()
	return r
}

// TestRatioRowsNameScenarios: every ratio divides two scenarios of the
// suite, so no rename can leave a row dividing nothing.
func TestRatioRowsNameScenarios(t *testing.T) {
	names := map[string]bool{}
	for _, n := range ScenarioNames() {
		names[n] = true
	}
	for _, q := range ratioRows {
		if !names[q.Num] || !names[q.Den] || q.Num == q.Den {
			t.Errorf("ratio %s does not divide two suite scenarios", q.Name())
		}
	}
}

// TestRatiosFromOwnMedians: each row is its two scenarios' medians divided,
// and only a gated row can fail, once its value reaches its bound.
func TestRatiosFromOwnMedians(t *testing.T) {
	r := medianReport(map[string]int64{
		"mspbfs/auto-large":      3_000_000,
		"msbfs/sequential-large": 10_000_000,
		"mspbfs/auto":            200_000,
		"dyn/overlay-scan":       300_000,
		"cluster/inproc":         3_000_000,
		"smspbfs/bit":            60_000,
		"beamer/gapbs":           30_000,
		"mspbfs/topdown":         600_000,
	})
	want := []float64{0.3, 1.5, 15, 2, 3}
	if len(r.Ratios) != len(want) {
		t.Fatalf("%d ratio rows, want %d", len(r.Ratios), len(want))
	}
	for i, q := range r.Ratios {
		if q.Value != want[i] || q.Failed() {
			t.Errorf("%s = %g (failed %v), want %g, passing", q.Name(), q.Value, q.Failed(), want[i])
		}
	}

	gated := 0
	for i, row := range ratioRows {
		if row.Bound <= 0 {
			continue
		}
		gated++
		for _, factor := range []float64{1, 2.5} { // at and past the bound
			medians := map[string]int64{"msbfs/sequential-large": 10_000_000} // every other gated row passes
			medians[row.Num], medians[row.Den] = int64(factor*row.Bound*1e6), 1_000_000
			r := medianReport(medians)
			for j, q := range r.Ratios {
				if q.Failed() != (j == i) {
					t.Errorf("%s at %g × bound: %s = %g (bound %g), failed %v", row.Name(), factor, q.Name(), q.Value, q.Bound, q.Failed())
				}
			}
		}
	}
	if gated != 2 {
		t.Errorf("%d gated rows, want 2: the paper's claim and SMS-PBFS against Beamer", gated)
	}
}

// TestRatioFailed: a gated row fails at or past its bound, on an infinite
// value (a zero denominator median) and on NaN; an ungated row never fails.
func TestRatioFailed(t *testing.T) {
	for _, c := range []struct {
		value, bound float64
		want         bool
	}{
		{0.3, 1, false}, {0.999, 1, false}, {1, 1, true}, {2, 1, true},
		{math.Inf(1), 1, true}, {math.NaN(), 1, true},
		{40, 0, false}, {math.NaN(), 0, false},
	} {
		if got := (Ratio{Value: c.value, Bound: c.bound}).Failed(); got != c.want {
			t.Errorf("value %g, bound %g: Failed() = %v, want %v", c.value, c.bound, got, c.want)
		}
	}
	if q := medianReport(map[string]int64{"msbfs/sequential-large": 0}).Ratios[0]; !q.Failed() {
		t.Errorf("zero denominator median: %s = %g passed the gate", q.Name(), q.Value)
	}
}

// TestReportRoundTrip: a written report decodes to the same report, the
// ratio rows included, with a bound only on the gated rows.
func TestReportRoundTrip(t *testing.T) {
	r := medianReport(map[string]int64{"mspbfs/auto-large": 20_000_000, "msbfs/sequential-large": 10_000_000})
	r.Env = Environment{GitSHA: "aaaa", GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GOMAXPROCS: 4}
	r.Config = RunConfig{Quick: true, Scale: 10, Sources: 64, Workers: 2, Reps: 1, Seed: 1,
		Handicaps: map[string]float64{"mspbfs/auto-large": 8}}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Fatalf("round trip mangled the report:\n got %+v\nwant %+v", got, *r)
	}
	if !got.Ratios[0].Failed() {
		t.Error("decoded gated row lost its failure")
	}
	if !strings.Contains(buf.String(), `"schema_version": 2`) || strings.Count(buf.String(), `"bound"`) != 2 {
		t.Errorf("report is not schema 2 with two bounded ratio rows:\n%s", buf.String())
	}
}

// TestWriteTableVerdicts: a passing gated row prints its bound and "ok";
// an ungated row prints "-" for both.
func TestWriteTableVerdicts(t *testing.T) {
	r := medianReport(map[string]int64{"mspbfs/auto-large": 3_000_000, "msbfs/sequential-large": 10_000_000})
	var buf bytes.Buffer
	r.WriteTable(&buf)
	lines := strings.Split(buf.String(), "\n")
	for _, q := range r.Ratios {
		want := []string{"-", "-"}
		if q.Bound > 0 {
			want = []string{"<", fmt.Sprint(q.Bound), "ok"}
		}
		found := false
		for _, line := range lines {
			rest, ok := strings.CutPrefix(line, q.Name())
			if !ok {
				continue
			}
			found = true
			if f := strings.Fields(rest); len(f) < 1+len(want) || !reflect.DeepEqual(f[1:1+len(want)], want) {
				t.Errorf("%s row %q, want bound and verdict %v", q.Name(), line, want)
			}
		}
		if !found {
			t.Errorf("table misses ratio %s:\n%s", q.Name(), buf.String())
		}
	}
}

// TestWriteTableShowsRatios: the ratio rows print under the medians, the
// failing gated row marked.
func TestWriteTableShowsRatios(t *testing.T) {
	r := medianReport(map[string]int64{"mspbfs/auto-large": 20_000_000, "msbfs/sequential-large": 10_000_000})
	var buf bytes.Buffer
	r.WriteTable(&buf)
	out := buf.String()
	for _, q := range r.Ratios {
		if !strings.Contains(out, q.Name()) {
			t.Errorf("table misses ratio %s:\n%s", q.Name(), out)
		}
	}
	if !strings.Contains(out, "FAIL") || strings.Index(out, "\nratio") < strings.Index(out, "scenario") {
		t.Errorf("table does not mark the failing row under the medians:\n%s", out)
	}
}
