package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// PkgPath is the import path ("repro/internal/core").
	PkgPath string
	// Dir is the package source directory.
	Dir string
	// Fset positions the package's files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records expression types and object resolution.
	TypesInfo *types.Info
}

// Loader loads module packages for analysis without golang.org/x/tools.
//
// Packages are enumerated with `go list -json -deps`, which yields the
// dependency closure in topological order, and type-checked with go/types.
// Imports of module-local packages resolve against the loader's own cache
// (the deps ordering guarantees dependencies are checked first); standard
// library imports fall back to the source importer, which type-checks
// $GOROOT/src directly and therefore works without compiled export data or
// network access.
type Loader struct {
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

// NewLoader returns a ready Loader with a fresh FileSet.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*types.Package{},
	}
}

// ListedPackage is the subset of `go list -json` output the loader and the
// bfsgate compiler-contract tool need: enough to map source files back to
// their packages.
type ListedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Match      []string
}

// ListPackages runs `go list -json -deps` in dir over patterns and decodes
// the result. The -deps closure comes back in topological order; entries
// named by the patterns carry a non-empty Match.
func ListPackages(dir string, patterns ...string) ([]ListedPackage, error) {
	args := append([]string{"list", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	var listed []ListedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p ListedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// Import implements types.Importer: module-local packages come from the
// loader cache, everything else from the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	return l.std.Import(path)
}

// Load lists the packages matching patterns in dir (the module root or any
// directory inside it) and returns the matched packages, type-checked, in
// dependency order. Test files are not analyzed: the checkers target the
// production concurrency kernels, and test-only helpers routinely allocate
// and spawn goroutines in ways the passes would have to special-case.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := ListPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}

	// -deps emits the whole closure; only packages with a Match entry were
	// named by the patterns, but every non-standard dependency must still be
	// type-checked (in order) so the matched ones resolve their imports.
	var result []*Package
	for _, p := range listed {
		if p.Standard {
			continue
		}
		pkg, err := l.checkDir(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		if len(p.Match) > 0 {
			result = append(result, pkg)
		}
	}
	sort.Slice(result, func(i, j int) bool { return result[i].PkgPath < result[j].PkgPath })
	return result, nil
}

// LoadDir parses and type-checks the single package rooted at dir (all
// non-test .go files), without consulting `go list`. It serves the
// analyzer unit tests, whose testdata packages live outside the module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		goFiles = append(goFiles, name)
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(goFiles)
	return l.checkDir(dir, dir, goFiles)
}

// checkDir parses files and type-checks them as one package under pkgPath.
func (l *Loader) checkDir(pkgPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	l.cache[pkgPath] = tpkg
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
