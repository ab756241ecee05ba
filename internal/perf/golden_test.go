package perf

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the pinned sizing for the schema/determinism tests. The
// worker count is fixed (not GOMAXPROCS) so the striped labeling — and with
// it source selection and work accounting — is identical on every machine.
func goldenConfig() Config {
	return Config{
		Quick:   true,
		Workers: 2,
		Reps:    2,
		Warmup:  1,
	}
}

// scrub zeroes every timing-derived field, leaving exactly the parts of
// the report that must be deterministic for a fixed seed and config.
func scrub(r *Report) *Report {
	s := *r
	s.CreatedUnix = 0
	s.Env = Environment{GitSHA: "scrubbed", GoVersion: "scrubbed", GOOS: "scrubbed",
		GOARCH: "scrubbed"}
	s.Scenarios = append([]Row(nil), r.Scenarios...)
	for i := range s.Scenarios {
		row := &s.Scenarios[i]
		row.SamplesNs = nil
		row.MedianNs, row.MADNs = 0, 0
		row.Rate, row.GTEPS = 0, 0
		row.Run = nil
	}
	s.Ratios = append([]Ratio(nil), r.Ratios...)
	for i := range s.Ratios {
		s.Ratios[i].Value = 0
	}
	return &s
}

func marshalScrubbed(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(scrub(r), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestQuickReportGolden runs the quick suite and checks every
// non-timing field — schema version, config echo, scenario names, units,
// work accounting, the ratio rows' names and bounds — against the
// committed golden file.
func TestQuickReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite; skipped with -short")
	}
	report, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := marshalScrubbed(t, report)

	golden := filepath.Join("testdata", "quick_scrubbed.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/perf -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scrubbed quick report drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Structural checks the golden alone cannot express.
	if report.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d", report.SchemaVersion)
	}
	names := ScenarioNames()
	if len(report.Scenarios) != len(names) {
		t.Fatalf("%d rows for %d scenarios", len(report.Scenarios), len(names))
	}
	for i, row := range report.Scenarios {
		if row.Name != names[i] {
			t.Errorf("row %d: name %q, want %q (order is part of the schema)", i, row.Name, names[i])
		}
		if row.MedianNs <= 0 || row.MADNs < 0 {
			t.Errorf("%s: implausible stats median=%d mad=%d", row.Name, row.MedianNs, row.MADNs)
		}
		if row.WorkPerOp <= 0 {
			t.Errorf("%s: no work accounted", row.Name)
		}
		if row.WorkUnit == UnitEdgesTraversed && row.GTEPS <= 0 {
			t.Errorf("%s: traversal scenario without GTEPS", row.Name)
		}
	}
	for _, q := range report.Ratios {
		if q.Value <= 0 {
			t.Errorf("ratio %s = %g", q.Name(), q.Value)
		}
	}
}

// TestQuickReportDeterministic runs the suite twice and checks that
// everything except timings is bit-identical — the property that keeps the
// BENCH trajectory diffable.
func TestQuickReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured suite twice; skipped with -short")
	}
	a, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := marshalScrubbed(t, a), marshalScrubbed(t, b)
	if !bytes.Equal(ga, gb) {
		t.Errorf("non-timing fields differ between identical runs:\n%s\nvs\n%s", ga, gb)
	}
}

// TestRunRejectsUnknownHandicap pins the CLI-facing validation.
func TestRunRejectsUnknownHandicap(t *testing.T) {
	if _, err := Run(Config{Quick: true, Handicaps: map[string]float64{"no/such": 2}}); err == nil {
		t.Error("unknown handicap scenario accepted")
	}
	if _, err := Run(Config{Quick: true, Handicaps: map[string]float64{"mspbfs/auto": -1}}); err == nil {
		t.Error("negative handicap factor accepted")
	}
}
