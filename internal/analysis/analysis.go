// Package analysis is a self-contained, dependency-free subset of the
// golang.org/x/tools/go/analysis framework, tailored to this repository's
// custom concurrency-correctness vet passes (cmd/bfsvet).
//
// The build environment intentionally has no module dependencies, so rather
// than importing x/tools this package reimplements the small surface the
// checkers need on top of the standard library: an Analyzer value with a Run
// function, a Pass carrying the parsed files and type information of one
// package, and Diagnostic reporting. Analyzers written against this API are
// source-compatible with x/tools for the subset used here, so they can be
// lifted onto the upstream multichecker unchanged if the dependency ever
// becomes available.
//
// The three shipped analyzers encode invariants of the MS-PBFS concurrency
// model (see docs/ANALYSIS.md):
//
//   - atomicword (internal/analysis/atomicword): no raw read-modify-write on
//     []uint64 bitset words outside internal/bitset.
//   - hotalloc (internal/analysis/hotalloc): no allocations inside loops
//     annotated //bfs:hot.
//   - waitgroupleak (internal/analysis/waitgroupleak): every goroutine
//     launch pairs with WaitGroup/pool/channel completion.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static analysis pass.
type Analyzer struct {
	// Name is the short command-line name of the analyzer.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos values of Files to file positions.
	Fset *token.FileSet
	// Files are the parsed source files of the package (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic. Populated by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic resolved to a position, tagged with the analyzer
// that produced it. This is the driver-facing result type.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// RunAnalyzers applies each analyzer to the package and returns the findings
// sorted by position. Analyzer errors (as opposed to findings) abort the run.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: name,
				Position: pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.PkgPath, a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Position, findings[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
