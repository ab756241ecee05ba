package gccontract

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
)

// funcSpan is one top-level function declaration's line range and display
// name. Closures report under their enclosing declaration, matching how the
// compiler attributes their diagnostics in practice for the contract's
// purposes (budgets are per declared function).
type funcSpan struct {
	name       string // display name as the compiler prints it
	start, end int
}

// fileIndex is everything the gate knows about one audited source file.
type fileIndex struct {
	pkgPath string
	funcs   []funcSpan
	hot     [][2]int // //bfs:hot loop line spans, outermost only
}

// Index maps compiler diagnostic positions back to packages, functions and
// //bfs:hot regions, and answers annotation-waiver queries.
type Index struct {
	files map[string]*fileIndex // keyed by module-root-relative path
	ann   *analysis.Annotations
}

// BuildIndex parses the GoFiles of the given packages (usually the Match
// subset of a ListPackages call) with filenames relative to moduleDir, so
// positions line up with the compiler's diagnostic paths.
func BuildIndex(moduleDir string, pkgs []analysis.ListedPackage) (*Index, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	idx := &Index{files: map[string]*fileIndex{}}
	var all []*ast.File
	for _, pkg := range pkgs {
		for _, name := range pkg.GoFiles {
			abs := filepath.Join(pkg.Dir, name)
			rel, err := filepath.Rel(moduleDir, abs)
			if err != nil {
				return nil, fmt.Errorf("relativize %s: %w", abs, err)
			}
			rel = filepath.ToSlash(rel)
			src, err := os.ReadFile(abs)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", rel, err)
			}
			all = append(all, f)
			idx.files[rel] = indexFile(fset, f, pkg.ImportPath)
		}
	}
	idx.ann = analysis.NewAnnotations(fset, all)
	// Hot spans need the annotation index, so they are filled in a second
	// walk once every file's comments are indexed.
	for rel, fi := range idx.files {
		fi.hot = hotSpans(fset, fileByName(all, fset, rel), idx.ann)
	}
	return idx, nil
}

func fileByName(files []*ast.File, fset *token.FileSet, rel string) *ast.File {
	for _, f := range files {
		if fset.Position(f.Pos()).Filename == rel {
			return f
		}
	}
	return nil
}

// indexFile records the file's top-level function spans.
func indexFile(fset *token.FileSet, f *ast.File, pkgPath string) *fileIndex {
	fi := &fileIndex{pkgPath: pkgPath}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fi.funcs = append(fi.funcs, funcSpan{
			name:  funcDisplayName(fd),
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}
	sort.Slice(fi.funcs, func(i, j int) bool { return fi.funcs[i].start < fi.funcs[j].start })
	return fi
}

// hotSpans returns the line spans of the outermost //bfs:hot loops in f.
func hotSpans(fset *token.FileSet, f *ast.File, ann *analysis.Annotations) [][2]int {
	if f == nil {
		return nil
	}
	var spans [][2]int
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		if !ann.MarkedRegion(n.Pos(), analysis.DirectiveHot) {
			return true
		}
		spans = append(spans, [2]int{
			fset.Position(n.Pos()).Line,
			fset.Position(n.End()).Line,
		})
		return false // nested loops are part of the region
	})
	return spans
}

// funcDisplayName renders fd's name the way the compiler prints it in -m
// diagnostics: "decideDirection", "(*State).Row", "State.Len".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return "(*" + types.ExprString(star.X) + ")." + fd.Name.Name
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}

// FuncAt resolves a diagnostic position to "pkgpath.name" of the enclosing
// top-level function. ok is false for files outside the audited set or
// positions outside any function body (package-level vars).
func (idx *Index) FuncAt(file string, line int) (string, bool) {
	fi := idx.files[file]
	if fi == nil {
		return "", false
	}
	for _, fs := range fi.funcs {
		if fs.start <= line && line <= fs.end {
			return fi.pkgPath + "." + fs.name, true
		}
	}
	return "", false
}

// Declared reports whether fn, in FuncAt's "pkgpath.name" form, is a
// top-level function of an audited file or an audited package's
// initializer pseudo-function.
func (idx *Index) Declared(fn string) bool {
	for _, fi := range idx.files {
		if fn == fi.pkgPath+".<init>" {
			return true
		}
		for _, fs := range fi.funcs {
			if fn == fi.pkgPath+"."+fs.name {
				return true
			}
		}
	}
	return false
}

// Audited reports whether file belongs to an audited package.
func (idx *Index) Audited(file string) bool { return idx.files[file] != nil }

// PkgOf returns the import path owning file, or "".
func (idx *Index) PkgOf(file string) string {
	if fi := idx.files[file]; fi != nil {
		return fi.pkgPath
	}
	return ""
}

// InHot reports whether file:line falls inside a //bfs:hot loop.
func (idx *Index) InHot(file string, line int) bool {
	fi := idx.files[file]
	if fi == nil {
		return false
	}
	for _, span := range fi.hot {
		if span[0] <= line && line <= span[1] {
			return true
		}
	}
	return false
}

// Waived reports whether the site at file:line carries the directive (on
// its own line or the line above).
func (idx *Index) Waived(file string, line int, directive string) bool {
	return idx.ann.MarkedAt(file, line, directive)
}
