package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// SchemaVersion identifies the BENCH_<sha>.json layout. Bump it on any
// field rename or semantic change; ReadReport rejects unknown versions so a
// compare never silently joins incompatible reports.
const SchemaVersion = 1

// Environment fingerprints the machine and toolchain a report was taken
// on. Compare treats reports from non-comparable environments as advisory:
// cross-host timing deltas are not regressions.
type Environment struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CaptureEnvironment fingerprints the current process and git checkout.
// Git failures (no repo, no binary) degrade to "unknown" rather than error:
// a report from a tarball build is still a report.
func CaptureEnvironment() Environment {
	env := Environment{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		env.GitDirty = len(strings.TrimSpace(string(out))) > 0
	}
	return env
}

// Comparable reports whether timing deltas between the two environments
// can be attributed to the code rather than the machine.
func (e Environment) Comparable(o Environment) bool {
	return e.GoVersion == o.GoVersion && e.GOOS == o.GOOS && e.GOARCH == o.GOARCH &&
		e.NumCPU == o.NumCPU && e.GOMAXPROCS == o.GOMAXPROCS
}

// RunConfig records the suite sizing a report was produced with. Compare
// refuses to join reports with different workloads.
type RunConfig struct {
	Quick      bool               `json:"quick"`
	Scale      int                `json:"scale"`
	LargeScale int                `json:"large_scale,omitempty"`
	Sources    int                `json:"sources"`
	Workers    int                `json:"workers"`
	Warmup     int                `json:"warmup"`
	Reps       int                `json:"reps"`
	Seed       uint64             `json:"seed"`
	Handicaps  map[string]float64 `json:"handicaps,omitempty"`
}

// sameWorkload reports whether two configs describe the same measured work
// (handicaps excluded — comparing a handicapped run against a clean one is
// exactly how the gate is validated).
func (c RunConfig) sameWorkload(o RunConfig) bool {
	return c.Quick == o.Quick && c.Scale == o.Scale && c.LargeScale == o.LargeScale &&
		c.Sources == o.Sources && c.Workers == o.Workers && c.Seed == o.Seed
}

// Row is one scenario's measured summary. All *_ns fields are nanoseconds
// per operation (one operation = one full scenario iteration).
type Row struct {
	Name      string  `json:"name"`
	Title     string  `json:"title"`
	WorkUnit  string  `json:"work_unit"`
	WorkPerOp int64   `json:"work_per_op"`
	Reps      int     `json:"reps"`
	SamplesNs []int64 `json:"samples_ns"`
	MedianNs  int64   `json:"median_ns"`
	MADNs     int64   `json:"mad_ns"`
	CILoNs    int64   `json:"ci_lo_ns"`
	CIHiNs    int64   `json:"ci_hi_ns"`
	// Rate is WorkPerOp per second at the median; GTEPS is Rate/1e9 for
	// edges-traversed scenarios and 0 otherwise.
	Rate  float64 `json:"rate_median"`
	GTEPS float64 `json:"gteps_median"`
	// Run is the last repetition's traversal summary (traversal scenarios).
	Run *metrics.RunSummary `json:"run,omitempty"`
}

// Report is the whole suite run — the unit the BENCH_<sha>.json trajectory
// is made of.
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	CreatedUnix   int64       `json:"created_unix"`
	Env           Environment `json:"env"`
	Config        RunConfig   `json:"config"`
	Scenarios     []Row       `json:"scenarios"`
}

// Row returns the named scenario's row, or nil.
func (r *Report) Row(name string) *Row {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// DefaultFileName is the trajectory naming convention: BENCH_<sha>.json,
// with a -dirty suffix when the work tree had local changes.
func (r *Report) DefaultFileName() string {
	sha := r.Env.GitSHA
	if sha == "" {
		sha = "unknown"
	}
	if r.Env.GitDirty {
		sha += "-dirty"
	}
	return fmt.Sprintf("BENCH_%s.json", sha)
}

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses and validates a report.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("perf: parsing report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perf: report schema version %d, this build reads %d",
			r.SchemaVersion, SchemaVersion)
	}
	if len(r.Scenarios) == 0 {
		return nil, fmt.Errorf("perf: report has no scenario rows")
	}
	for _, row := range r.Scenarios {
		if row.Name == "" || len(row.SamplesNs) == 0 {
			return nil, fmt.Errorf("perf: malformed scenario row %+v", row)
		}
	}
	return &r, nil
}

// ReadReportFile reads and validates the report at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// WriteTable renders the per-scenario medians as an aligned text table.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "suite: scale=%d sources=%d workers=%d reps=%d seed=%d quick=%v\n",
		r.Config.Scale, r.Config.Sources, r.Config.Workers, r.Config.Reps,
		r.Config.Seed, r.Config.Quick)
	fmt.Fprintf(w, "env: %s%s go=%s cpus=%d\n", r.Env.GitSHA,
		dirtyMark(r.Env.GitDirty), r.Env.GoVersion, r.Env.NumCPU)
	fmt.Fprintf(w, "%-22s %14s %12s %14s %10s\n",
		"scenario", "median", "±MAD", "95% CI", "GTEPS")
	for _, row := range r.Scenarios {
		ci := fmt.Sprintf("[%s, %s]", shortDur(row.CILoNs), shortDur(row.CIHiNs))
		gteps := "-"
		if row.GTEPS > 0 {
			gteps = fmt.Sprintf("%.3f", row.GTEPS)
		}
		fmt.Fprintf(w, "%-22s %14s %12s %14s %10s\n",
			row.Name, shortDur(row.MedianNs), shortDur(row.MADNs), ci, gteps)
	}
}

func dirtyMark(dirty bool) string {
	if dirty {
		return "-dirty"
	}
	return ""
}

func shortDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.3gµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// sortedHandicapNames is used by Run for deterministic progress output.
func sortedHandicapNames(h map[string]float64) []string {
	names := make([]string, 0, len(h))
	for n := range h {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
