package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

// tinyRunArgs keeps CLI-level suite runs fast: smallest graph the source
// workload fits, few repetitions (a later -reps in extra overrides the 5).
// Not fewer than 5 reps: the gate test compares two of these runs, and with
// 3 samples a single noisy-neighbor spike widens the bootstrap CI enough to
// swallow even the 2x handicap.
func tinyRunArgs(extra ...string) []string {
	args := []string{"-quick", "-scale", "9", "-workers", "2", "-reps", "5", "-warmup", "1"}
	return append(args, extra...)
}

func TestRunWritesValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite; skipped with -short")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var buf bytes.Buffer
	if err := runCmd(tinyRunArgs("-out", out), &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := perf.ReadReportFile(out)
	if err != nil {
		t.Fatalf("run wrote an invalid report: %v", err)
	}
	if rep.SchemaVersion != perf.SchemaVersion || len(rep.Scenarios) != len(perf.Scenarios()) {
		t.Errorf("report: version %d, %d rows", rep.SchemaVersion, len(rep.Scenarios))
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

// resolvesHandicap reports whether an unhandicapped pair of reports agrees
// on scenario tightly enough for the gate to see a factor-x slowdown: the
// second run's CI, scaled by factor, must clear the first run's.
func resolvesHandicap(t *testing.T, basePath, samePath, scenario string, factor float64) bool {
	t.Helper()
	var rows [2]*perf.Row
	for i, path := range []string{basePath, samePath} {
		rep, err := perf.ReadReportFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i] = rep.Row(scenario); rows[i] == nil {
			t.Fatalf("%s: no %s row", path, scenario)
		}
	}
	return factor*float64(rows[1].CILoNs) > float64(rows[0].CIHiNs)
}

func TestCompareCLIGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite; skipped with -short")
	}
	// This test validates the gate's *logic* — clean runs compare clean,
	// an injected 2x handicap is flagged — with real measured runs. The
	// tiny mspbfs/auto run is tens of microseconds, so on a loaded CI
	// container (often one or two cores) five repetitions can spread wider
	// than the 2x handicap. Each attempt therefore sizes its own
	// measurement: its A/A pair must compare clean and be tight enough to
	// resolve 2x, or the pair is re-measured with doubled repetitions
	// (bounded), before the handicapped run is judged at that size. A
	// logic bug fails every attempt at every size and still fails the
	// test; noise does not.
	const (
		attempts = 3
		scenario = "mspbfs/auto"
		handicap = 2.0
		maxReps  = 40
	)
	var lastFail string
attempt:
	for a := 1; a <= attempts; a++ {
		dir := t.TempDir()
		base := filepath.Join(dir, "base.json")
		same := filepath.Join(dir, "same.json")
		slow := filepath.Join(dir, "slow.json")
		var discard, buf bytes.Buffer
		reps := 5
		for {
			sized := fmt.Sprint(reps)
			if err := runCmd(tinyRunArgs("-reps", sized, "-out", base), &discard); err != nil {
				t.Fatal(err)
			}
			if err := runCmd(tinyRunArgs("-reps", sized, "-out", same), &discard); err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			err := compareCmd([]string{base, same}, &buf)
			if err == nil && resolvesHandicap(t, base, same, scenario, handicap) {
				break
			}
			if reps *= 2; reps > maxReps {
				lastFail = fmt.Sprintf("same-machine back-to-back pair still outside the gate at %d reps (compare: %v)\n%s",
					reps/2, err, buf.String())
				t.Logf("attempt %d/%d: %s", a, attempts, lastFail)
				continue attempt
			}
		}
		if err := runCmd(tinyRunArgs("-reps", fmt.Sprint(reps), "-out", slow,
			"-handicap", fmt.Sprintf("%s=%g", scenario, handicap)), &discard); err != nil {
			t.Fatal(err)
		}

		buf.Reset()
		err := compareCmd([]string{base, slow}, &buf)
		if err == nil {
			lastFail = fmt.Sprintf("%gx handicapped run not gated at %d reps:\n%s", handicap, reps, buf.String())
			t.Logf("attempt %d/%d: %s", a, attempts, lastFail)
			continue
		}
		// The remaining checks are deterministic given a gated compare: a
		// failure here is a real bug, not measurement noise.
		if !strings.Contains(err.Error(), "regression") {
			t.Errorf("gate error = %v", err)
		}
		if !strings.Contains(buf.String(), scenario) {
			t.Errorf("delta table missing the slowed scenario:\n%s", buf.String())
		}
		return
	}
	t.Fatalf("all %d attempts hit a wrong gate outcome; last: %s", attempts, lastFail)
}

func TestCompareCLIErrors(t *testing.T) {
	if err := compareCmd([]string{"only-one.json"}, &bytes.Buffer{}); err == nil {
		t.Error("single path accepted")
	}
	if err := compareCmd([]string{"a.json", "b.json"}, &bytes.Buffer{}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing files: err = %v", err)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareCmd([]string{bad, bad}, &bytes.Buffer{}); err == nil {
		t.Error("malformed report accepted")
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
