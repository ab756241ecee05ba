package perf

import (
	"bytes"
	"strings"
	"testing"
)

// syntheticReport builds a report whose every scenario has tight samples
// around base*i nanoseconds.
func syntheticReport(scale float64) *Report {
	env := Environment{GitSHA: "aaaa", GoVersion: "go1.24.0", GOOS: "linux",
		GOARCH: "amd64", NumCPU: 4, GOMAXPROCS: 4}
	r := &Report{
		SchemaVersion: SchemaVersion,
		Env:           env,
		Config:        RunConfig{Quick: true, Scale: 10, Sources: 64, Workers: 2, Reps: 5, Seed: 1},
	}
	for i, name := range ScenarioNames() {
		base := float64(100_000 * (i + 1))
		var samples []int64
		for _, jitter := range []float64{0.99, 0.995, 1.0, 1.005, 1.01} {
			samples = append(samples, int64(base*jitter*scale))
		}
		med := median(samples)
		lo, hi := bootstrapCI(samples, 0.95, 1)
		r.Scenarios = append(r.Scenarios, Row{
			Name: name, WorkUnit: UnitEdgesTraversed, WorkPerOp: 1000,
			Reps: len(samples), SamplesNs: samples,
			MedianNs: med, MADNs: mad(samples), CILoNs: lo, CIHiNs: hi,
		})
	}
	return r
}

func TestCompareIdenticalReportsClean(t *testing.T) {
	a, b := syntheticReport(1), syntheticReport(1)
	c := Compare(a, b)
	if !c.EnvComparable || !c.WorkloadMatches {
		t.Fatalf("identical reports judged incomparable: %+v", c)
	}
	if n := c.Regressions(); n != 0 {
		t.Fatalf("identical reports produced %d regressions", n)
	}
	for _, d := range c.Deltas {
		if d.Verdict != VerdictOK {
			t.Errorf("%s: verdict %s on identical data", d.Name, d.Verdict)
		}
	}
	if c.Gate(false) || c.Gate(true) {
		t.Error("clean comparison gated")
	}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	old := syntheticReport(1)
	slow := syntheticReport(1)
	// Inject a 2x slowdown into exactly one scenario, the acceptance case.
	row := slow.Row("mspbfs/auto")
	for i := range row.SamplesNs {
		row.SamplesNs[i] *= 2
	}
	row.MedianNs *= 2
	row.CILoNs *= 2
	row.CIHiNs *= 2

	c := Compare(old, slow)
	if n := c.Regressions(); n != 1 {
		t.Fatalf("regressions = %d, want exactly 1", n)
	}
	for _, d := range c.Deltas {
		want := VerdictOK
		if d.Name == "mspbfs/auto" {
			want = VerdictRegression
		}
		if d.Verdict != want {
			t.Errorf("%s: verdict %s, want %s", d.Name, d.Verdict, want)
		}
	}
	if !c.Gate(false) {
		t.Error("confirmed same-env regression did not gate")
	}

	var buf bytes.Buffer
	c.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "regression") || !strings.Contains(out, "+100") {
		t.Errorf("delta table missing regression row:\n%s", out)
	}
}

func TestCompareCIOverlapSuppressesNoise(t *testing.T) {
	// 8% slower median but wildly overlapping CIs: must NOT flag, even
	// though the median delta alone exceeds the 5% threshold.
	old := syntheticReport(1)
	noisy := syntheticReport(1.08)
	for i := range noisy.Scenarios {
		noisy.Scenarios[i].CILoNs = old.Scenarios[i].CILoNs // force overlap
	}
	c := Compare(old, noisy)
	if n := c.Regressions(); n != 0 {
		t.Errorf("CI-overlapping 8%% drift flagged %d regressions", n)
	}
}

func TestCompareThresholdSuppressesTinyConfirmedDrift(t *testing.T) {
	// CIs separate but the median only moved 2%: statistically real,
	// below every gate threshold, must not flag.
	old := syntheticReport(1)
	drift := syntheticReport(1.02)
	c := Compare(old, drift)
	if n := c.Regressions(); n != 0 {
		t.Errorf("2%% drift flagged %d regressions", n)
	}
}

func TestCompareEnvMismatchIsAdvisory(t *testing.T) {
	old := syntheticReport(1)
	slow := syntheticReport(3)
	slow.Env.NumCPU = 64 // a different machine
	c := Compare(old, slow)
	if c.EnvComparable {
		t.Fatal("different CPU counts judged comparable")
	}
	if c.Regressions() == 0 {
		t.Fatal("3x slowdown not even observed")
	}
	if c.Gate(false) {
		t.Error("cross-machine comparison gated without -strict")
	}
	if !c.Gate(true) {
		t.Error("-strict did not gate a cross-machine regression")
	}
}

func TestCompareWorkloadMismatch(t *testing.T) {
	old := syntheticReport(1)
	other := syntheticReport(3)
	other.Config.Scale = 16 // a different workload entirely
	c := Compare(old, other)
	if c.WorkloadMatches {
		t.Fatal("different scales judged the same workload")
	}
	if n := c.Regressions(); n != 0 {
		t.Errorf("cross-workload comparison produced %d regressions", n)
	}
	var buf bytes.Buffer
	c.WriteTable(&buf)
	if !strings.Contains(buf.String(), "WARNING") {
		t.Error("workload mismatch not surfaced in the table")
	}
}

func TestCompareNewAndRemovedScenarios(t *testing.T) {
	old := syntheticReport(1)
	cur := syntheticReport(1)
	cur.Scenarios = cur.Scenarios[1:] // first scenario removed...
	cur.Scenarios = append(cur.Scenarios, Row{Name: "future/scenario",
		SamplesNs: []int64{1}, MedianNs: 1, Reps: 1})
	c := Compare(old, cur)
	var removed, added bool
	for _, d := range c.Deltas {
		if d.Verdict == VerdictRemoved && d.Name == old.Scenarios[0].Name {
			removed = true
		}
		if d.Verdict == VerdictNew && d.Name == "future/scenario" {
			added = true
		}
	}
	if !removed || !added {
		t.Errorf("removed=%v added=%v, want both tracked", removed, added)
	}
	if c.Regressions() != 0 {
		t.Error("membership changes counted as regressions")
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := syntheticReport(1)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scenarios) != len(r.Scenarios) || got.Env != r.Env {
		t.Fatalf("round trip mangled the report")
	}
	// Version gate.
	bad := strings.Replace(buf.String(), `"schema_version": 1`, `"schema_version": 99`, 1)
	if _, err := ReadReport(strings.NewReader(bad)); err == nil {
		t.Error("unknown schema version accepted")
	}
	if _, err := ReadReport(strings.NewReader(`{"schema_version":1,"scenarios":[]}`)); err == nil {
		t.Error("empty scenario list accepted")
	}
}
