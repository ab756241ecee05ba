// Command bfsvet is the repository's concurrency-correctness multichecker:
// it runs the custom internal/analysis passes (arenarelease, atomicword,
// falseshare, hotalloc, waitgroupleak) over the module's packages, exactly
// like `go vet` runs the stock passes. atomicword also enforces the
// //bfs:nocas marks.
//
// Usage:
//
//	go run ./cmd/bfsvet ./...
//	go run ./cmd/bfsvet -run atomicword ./internal/core
//	go run ./cmd/bfsvet -list
//
// The exit status is 0 when no findings are reported, 1 when at least one
// analyzer fired, and 2 on load or analysis errors. Test files are not
// analyzed (the passes target the production concurrency kernels); see
// docs/ANALYSIS.md for the analyzer catalogue and annotation conventions.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/arenarelease"
	"repro/internal/analysis/atomicword"
	"repro/internal/analysis/falseshare"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/waitgroupleak"
)

// analyzers is the full pass catalogue, in reporting order.
var analyzers = []*analysis.Analyzer{
	arenarelease.Analyzer,
	atomicword.Analyzer,
	falseshare.Analyzer,
	hotalloc.Analyzer,
	waitgroupleak.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "directory to load packages from (module root or below)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "bfsvet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "bfsvet:", err)
		return 2
	}

	exit := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, selected)
		if err != nil {
			fmt.Fprintln(stderr, "bfsvet:", err)
			return 2
		}
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s: %s: %s\n", relPosition(f.Position), f.Analyzer, f.Message)
			exit = 1
		}
	}
	return exit
}

// selectAnalyzers resolves the -run flag against the catalogue.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range analyzers {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
	}
	return out, nil
}

// relPosition shortens absolute file positions relative to the working
// directory, matching `go vet` output style.
func relPosition(p token.Position) string {
	wd, err := os.Getwd()
	if err != nil {
		return p.String()
	}
	rel, err := filepath.Rel(wd, p.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p.String()
	}
	q := p
	q.Filename = rel
	return q.String()
}
