package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/perf"
)

// tinyRunArgs keeps CLI-level suite runs fast: smallest graph the source
// workload fits, few repetitions.
func tinyRunArgs(extra ...string) []string {
	args := []string{"-quick", "-scale", "9", "-workers", "2", "-reps", "3", "-warmup", "1"}
	return append(args, extra...)
}

// readReport decodes the report run wrote at path.
func readReport(t *testing.T, path string) *perf.Report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep perf.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("run wrote an invalid report: %v", err)
	}
	return &rep
}

// TestRunWritesValidReport checks the file run writes, whatever the
// measured ratios say: the gate's verdict on timings is not this test's
// subject (TestGate holds it on synthetic reports), so a gate failure
// under a loaded test machine is accepted here.
func TestRunWritesValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite; skipped with -short")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var buf bytes.Buffer
	if err := runCmd(tinyRunArgs("-out", out), &buf); err != nil && !errors.Is(err, errRatioGate) {
		t.Fatal(err)
	}
	rep := readReport(t, out)
	if rep.SchemaVersion != perf.SchemaVersion || len(rep.Scenarios) != len(perf.Scenarios()) {
		t.Errorf("report: version %d, %d rows", rep.SchemaVersion, len(rep.Scenarios))
	}
	if len(rep.Ratios) == 0 {
		t.Error("report carries no ratio rows")
	}
	for _, q := range rep.Ratios {
		if q.Value <= 0 || !strings.Contains(buf.String(), q.Name()) {
			t.Errorf("ratio %s = %g, or missing from the table:\n%s", q.Name(), q.Value, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "wrote ") {
		t.Errorf("run output missing path notice:\n%s", buf.String())
	}
}

func TestRunDefaultFileNameIsBenchSha(t *testing.T) {
	// The default output name must follow the BENCH_<sha>.json trajectory
	// convention; checked via the report's own naming, no suite run needed.
	rep := &perf.Report{Env: perf.CaptureEnvironment()}
	name := rep.DefaultFileName()
	if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
		t.Errorf("default file name %q does not match BENCH_<sha>.json", name)
	}
}

// TestGate: a report fails exactly when a gated ratio row reaches its
// bound; ungated rows never fail it.
func TestGate(t *testing.T) {
	rep := &perf.Report{Ratios: []perf.Ratio{
		{Num: "a", Den: "b", Value: 0.3, Bound: 1},
		{Num: "c", Den: "b", Value: 40},
	}}
	if err := gate(rep); err != nil {
		t.Errorf("passing report gated: %v", err)
	}
	rep.Ratios[0].Value = 1
	err := gate(rep)
	if !errors.Is(err, errRatioGate) || !strings.Contains(err.Error(), "a ÷ b") || strings.Contains(err.Error(), "c ÷ b") {
		t.Errorf("ratio at its bound: err = %v, want the gate naming a ÷ b only", err)
	}
}

// TestRunHandicapFailsGate is the gate's self-test end to end: a
// mspbfs/auto-large slowed a millionfold cannot stay below
// msbfs/sequential-large, so run exits through the gate, after writing
// the report.
func TestRunHandicapFailsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite; skipped with -short")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	err := runCmd(tinyRunArgs("-out", out, "-handicap", "mspbfs/auto-large=1e6"), &bytes.Buffer{})
	if !errors.Is(err, errRatioGate) {
		t.Fatalf("handicapped run: err = %v, want the ratio gate", err)
	}
	if rep := readReport(t, out); !rep.Ratios[0].Failed() {
		t.Errorf("report's gated row %+v does not record the failure", rep.Ratios[0])
	}
}

func TestRunCLIErrors(t *testing.T) {
	if err := runCmd([]string{"-handicap", "nonsense"}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -handicap accepted")
	}
	if err := runCmd([]string{"-handicap", "no/such=2"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown handicap scenario accepted")
	}
	if err := runCmd([]string{"positional"}, &bytes.Buffer{}); err == nil {
		t.Error("positional run argument accepted")
	}
}

// TestHandicapFlags: repeated -handicap pairs collect into one map, a
// later factor for the same scenario replacing the earlier one.
func TestHandicapFlags(t *testing.T) {
	h := handicapFlags{}
	for _, v := range []string{"a=2", "b=1.5", "a=3"} {
		if err := h.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if want := (handicapFlags{"a": 3, "b": 1.5}); !reflect.DeepEqual(h, want) {
		t.Errorf("handicaps = %v, want %v", h, want)
	}
	if err := h.Set("a=fast"); !errors.Is(err, strconv.ErrSyntax) || !strings.Contains(err.Error(), "a=fast") {
		t.Errorf("bad factor: err = %v, want a syntax error naming the pair", err)
	}
	if h["a"] != 3 {
		t.Errorf("a rejected pair changed the map: %v", h)
	}
}

func TestListCmd(t *testing.T) {
	var buf bytes.Buffer
	if err := listCmd(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range perf.ScenarioNames() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("list output missing %s", name)
		}
	}
}
