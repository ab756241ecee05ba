package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteResult is what one pass over all workloads yields: per workload the
// end-to-end result (tracing off) and the per-layer result (tracing on).
type suiteResult struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Commit    string            `json:"commit"`
	Claim     *string           `json:"claim"` // this benchmark defines numbers; it claims none
	EndToEnd  map[string]result `json:"end_to_end"`
	PerLayer  map[string]result `json:"per_layer"`
	WorkOrder []string          `json:"workloads"`
}

// runChild runs one workload in a child process and parses the result
// from the last line of its output, which it also copies to stdout.
func runChild(o options, workload string, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-out", o.out}
	if o.flush != 0 {
		args = append(args, "-flush", o.flush.String())
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("%s: no result line: %w", workload, err), runErr)
	}
	return res, runErr
}

// runSuite runs every workload twice, tracing off then on, each in its own
// child process, and writes the results under o.out. A self-test run
// (-flush) is never written where a baseline would be read from.
func runSuite(o options, file string) (suiteResult, error) {
	sr := suiteResult{Seed: o.seed, Seconds: o.seconds, Commit: gitSHA(),
		EndToEnd: map[string]result{}, PerLayer: map[string]result{}}
	var errs []error
	for _, sp := range specs {
		sr.WorkOrder = append(sr.WorkOrder, sp.name)
		for trace, into := range []map[string]result{sr.EndToEnd, sr.PerLayer} {
			res, err := runChild(o, sp.name, trace)
			if err != nil {
				errs = append(errs, err)
			}
			into[sp.name] = res
		}
	}
	if o.flush != 0 {
		file = "selftest-" + file
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return sr, err
	}
	b, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return sr, err
	}
	path := filepath.Join(o.out, file)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return sr, err
	}
	fmt.Printf("results written to %s\n", path)
	return sr, errors.Join(errs...)
}

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the full set twice on the same code and holds every
// end-to-end metric of every workload to its bound: a harness that cannot
// tell two identical programs alike cannot tell two different ones apart.
// The per-op counts of the core layer must repeat exactly.
func runAA(o options) error {
	if o.flush != 0 {
		return errors.New("-aa compares baselines; it does not take -flush")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json at the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, errA := runSuite(o, "results-a.json")
	b, errB := runSuite(o, "results-b.json")
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	beyondBound := 0
	fmt.Printf("\nA/A: |a - b| / a per workload and end-to-end metric (steal share a / b)\n")
	for _, name := range a.WorkOrder {
		fmt.Printf("%s  (steal %.3f / %.3f)\n", name,
			a.PerLayer[name].Metrics["harness.steal_share"].Value, b.PerLayer[name].Metrics["harness.steal_share"].Value)
		for _, m := range bf.EndToEnd {
			va, vb := a.EndToEnd[name].Metrics[m.Name].Value, b.EndToEnd[name].Metrics[m.Name].Value
			diff := ratio(math.Abs(va-vb), va)
			verdict := "ok"
			if diff > m.Bound {
				verdict = "BEYOND BOUND"
				beyondBound++
			}
			fmt.Printf("  %-18s a %12.6g  b %12.6g  diff %.4f  bound %.2f  %s\n", m.Name, va, vb, diff, m.Bound, verdict)
		}
		// The timed metrics carry no bound on this host; their difference
		// is printed so that a reader sees what a bound would have to hold.
		for _, d := range timedMetrics {
			va, vb := a.PerLayer[name].Metrics[d.name].Value, b.PerLayer[name].Metrics[d.name].Value
			fmt.Printf("  %-18s a %12.6g  b %12.6g  diff %.4f  (no bound: diagnostic)\n", d.name, va, vb, ratio(math.Abs(va-vb), va))
		}
		for _, count := range []string{"core.iterations_per_op", "core.bottomup_iterations_per_op",
			"core.scanned_edges_per_op", "core.traversed_edges_per_op"} {
			va, vb := a.PerLayer[name].Metrics[count].Value, b.PerLayer[name].Metrics[count].Value
			if va != vb {
				fmt.Printf("  %-36s a %v  b %v  COUNT DOES NOT REPEAT\n", count, va, vb)
				beyondBound++
			}
		}
	}
	if beyondBound > 0 {
		return fmt.Errorf("A/A: %d comparisons beyond their bound", beyondBound)
	}
	return nil
}
