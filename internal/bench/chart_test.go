package bench

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestBarChartProportions(t *testing.T) {
	var buf bytes.Buffer
	barChart(&buf, []string{"a", "bb"}, []float64{10, 40}, " ms", 40)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	countHash := func(s string) int { return strings.Count(s, "#") }
	if countHash(lines[1]) != 40 {
		t.Errorf("max bar has %d hashes, want 40", countHash(lines[1]))
	}
	if countHash(lines[0]) != 10 {
		t.Errorf("quarter bar has %d hashes, want 10", countHash(lines[0]))
	}
	if !strings.Contains(lines[0], "10 ms") {
		t.Errorf("value/unit missing: %q", lines[0])
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	var buf bytes.Buffer
	barChart(&buf, nil, nil, "", 10)
	barChart(&buf, []string{"a"}, []float64{1, 2}, "", 10) // length mismatch
	if buf.Len() != 0 {
		t.Error("degenerate inputs produced output")
	}
	// All-zero values must not divide by zero; tiny positives get 1 hash.
	barChart(&buf, []string{"z"}, []float64{0}, "", 10)
	if strings.Count(buf.String(), "#") != 0 {
		t.Error("zero value drew a bar")
	}
	buf.Reset()
	barChart(&buf, []string{"big", "tiny"}, []float64{1000, 0.001}, "", 20)
	if !strings.Contains(buf.String(), "#") {
		t.Error("no bars drawn")
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
	s := sparkline([]float64{0, 5, 10})
	if len(s) != 3 {
		t.Fatalf("sparkline length %d", len(s))
	}
	if s[0] != ' ' || s[2] != '@' {
		t.Errorf("sparkline = %q, want space..@", s)
	}
	if z := sparkline([]float64{0, 0}); z != "  " {
		t.Errorf("all-zero sparkline = %q", z)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg()
	cfg.CSVDir = dir
	for _, exp := range []string{"fig3", "ablation"} {
		if err := Run(exp, cfg); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		rows := readCSV(t, filepath.Join(dir, exp+".csv"))
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", exp, len(rows))
		}
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s: row %d has %d fields, header has %d", exp, i, len(row), len(rows[0]))
			}
		}
	}
	if err := Run("fig6", cfg); err == nil {
		t.Error("experiment without CSV export accepted")
	}
	if err := Run("nope", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCSVIsThePrintedRun: the CSV holds the rows of the run the report
// printed, not of a second run: Figure 2's utilizations, rounded as the
// report prints them, read the same in both.
func TestCSVIsThePrintedRun(t *testing.T) {
	var out bytes.Buffer
	cfg := quickCfg()
	cfg.Out, cfg.CSVDir = &out, t.TempDir()
	if err := Run("fig2", cfg); err != nil {
		t.Fatal(err)
	}
	var printed [][2]string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && strings.HasSuffix(f[1], "%") && strings.HasSuffix(f[2], "%") {
			printed = append(printed, [2]string{strings.TrimSuffix(f[1], "%"), strings.TrimSuffix(f[2], "%")})
		}
	}
	rows := readCSV(t, filepath.Join(cfg.CSVDir, "fig2.csv"))[1:]
	if len(rows) != len(printed) || len(rows) == 0 {
		t.Fatalf("%d CSV rows, %d printed rows", len(rows), len(printed))
	}
	pct := func(s string) string {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return strconv.FormatFloat(100*v, 'f', 1, 64)
	}
	for i, r := range rows {
		if got := [2]string{pct(r[1]), pct(r[2])}; got != printed[i] {
			t.Errorf("%s sources: CSV utilizations %v%%, printed %v%%", r[0], got, printed[i])
		}
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rows
}
