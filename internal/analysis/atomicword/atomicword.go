// Package atomicword defines the analyzer that owns bitset-word write
// discipline. It enforces two rules, one per direction:
//
//   - A raw read-modify-write on a []uint64 word outside internal/bitset
//     needs //bfs:singlewriter. The MS-PBFS concurrency model (paper Section
//     3.1.1) allows concurrent mutation of the shared seen/visit/visitNext
//     arrays only through the per-word CAS-OR primitives of internal/bitset.
//     A direct |=, &^=, ^= or index assignment on a []uint64 word compiles
//     and usually works — until two workers hit the same word, at which
//     point a lost update silently corrupts the BFS result instead of
//     crashing. The annotation names the reason the plain write cannot race
//     (for example the second top-down phase, where each vertex is owned by
//     exactly one worker).
//   - A function whose doc comment carries //bfs:nocas contains no atomic
//     operation: no call into sync/atomic (functions or methods on the
//     atomic.Int64-style wrapper types) and no call to a function or method
//     whose name begins with "Atomic" — the repository's naming convention
//     for the bitset CAS-OR surface. Nested function literals are part of
//     the claim. The worker-owned frontier substrate removes CAS from the
//     scatter, merge, resolve and bottom-up tasks; this rule keeps it
//     removed, one "just this one atomic" patch at a time. There is no
//     waiver: if a marked function needs an atomic, remove the mark and
//     with it the claim.
package atomicword

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ExemptSuffix is the import-path suffix of the one package allowed to
// manipulate bitset words directly: the package that implements the API.
const ExemptSuffix = "internal/bitset"

// atomicNamePrefix is the naming convention for the repository's own
// atomic primitives (the bitset CAS-OR surface).
const atomicNamePrefix = "Atomic"

// Analyzer flags non-atomic writes to []uint64 elements and atomic calls
// inside //bfs:nocas functions.
var Analyzer = &analysis.Analyzer{
	Name: "atomicword",
	Doc: "flags non-atomic |=, &^=, ^=, &=, =, ++ and -- on []uint64 words outside internal/bitset " +
		"(use the bitset CAS-OR API or annotate //bfs:singlewriter with a justification), and " +
		"sync/atomic or Atomic*-named calls inside //bfs:nocas functions (no waiver)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	exempt := strings.HasSuffix(pass.Pkg.Path(), ExemptSuffix)
	ann := analysis.NewAnnotations(pass.Fset, pass.Files)

	for _, file := range pass.Files {
		// fn is the enclosing function declaration: a //bfs:singlewriter
		// doc comment covers its every write, a //bfs:nocas one bans
		// atomics from its body.
		var fn *ast.FuncDecl
		var noCAS bool
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				fn, noCAS = n, analysis.DocMarked(n, analysis.DirectiveNoCAS)
				ast.Inspect(n.Body, visit)
				fn, noCAS = nil, false
				return false
			case *ast.AssignStmt:
				if exempt {
					break
				}
				if op := rmwOp(n.Tok); op != "" || n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						checkTarget(pass, ann, fn, n.Pos(), lhs, n.Tok.String())
					}
				}
			case *ast.IncDecStmt:
				if !exempt {
					checkTarget(pass, ann, fn, n.Pos(), n.X, n.Tok.String())
				}
			case *ast.CallExpr:
				if !noCAS {
					break
				}
				if name, kind := atomicCallee(pass, n); name != "" {
					pass.Reportf(n.Pos(),
						"%s %s inside //bfs:nocas function %s: the worker-owned frontier path must use plain stores only",
						kind, name, fn.Name.Name)
				}
			}
			return true
		}
		ast.Inspect(file, visit)
	}
	return nil, nil
}

// rmwOp returns a non-empty name for read-modify-write assignment tokens.
func rmwOp(tok token.Token) string {
	switch tok {
	case token.OR_ASSIGN, token.AND_NOT_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN,
		token.ADD_ASSIGN, token.SUB_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
		return tok.String()
	}
	return ""
}

// checkTarget reports lhs if it is an index expression into a []uint64.
func checkTarget(pass *analysis.Pass, ann *analysis.Annotations, fn *ast.FuncDecl, pos token.Pos, lhs ast.Expr, op string) {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[idx.X]
	if !ok || !isUint64Slice(tv.Type) {
		return
	}
	if ann.Marked(pos, analysis.DirectiveSingleWriter) {
		return
	}
	if fn != nil && analysis.DocMarked(fn, analysis.DirectiveSingleWriter) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"non-atomic %s on []uint64 bitset word; route the write through the bitset CAS-OR API or annotate //bfs:singlewriter",
		op)
}

// isUint64Slice reports whether t is []uint64 (possibly via a named slice
// type; named element types that alias uint64 also count).
func isUint64Slice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// atomicCallee classifies call's callee: a sync/atomic callable (function
// or method), an Atomic*-named function or method, or neither ("" name).
func atomicCallee(pass *analysis.Pass, call *ast.CallExpr) (name, kind string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return "", ""
	}
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
		return obj.Name(), "sync/atomic call"
	}
	if strings.HasPrefix(obj.Name(), atomicNamePrefix) {
		return obj.Name(), "atomic primitive"
	}
	return "", ""
}
