// Package falseshare defines an analyzer that flags per-worker-indexed
// writes to slice or array elements narrower than a cache line.
//
// The repository's workers publish per-worker statistics and results by
// writing to their own slot of a shared slice — `busy[workerID] += elapsed`,
// `timings[workerID] = d` — which is race-free but not contention-free: when
// adjacent slots share a 64-byte cache line, every write invalidates the
// line in the other workers' caches (false sharing). On the BFS kernels'
// per-chunk bookkeeping this turns a supposedly thread-local counter bump
// into a cross-core coherence storm; the fix is padding each element to a
// full cache line (see sched.workerCell) or batching into a local and
// publishing once.
//
// The pass flags assignments, op-assignments and ++/-- on `x[workerID]` (or
// a field of it, `x[workerID].f`) when x is a slice or array whose element
// type is smaller than 64 bytes. The index must be exactly an identifier
// named workerID — the repository's convention for the per-worker lane
// number — so deliberately strided slots (`counts[workerID*8]`) never match.
// A site where the narrow element is intentional (cold path, measurement
// scaffolding) is suppressed with //bfs:share-ok plus a justification.
//
// The pass also enforces the perworker rule: a struct type whose doc
// comment carries //bfs:perworker declares itself the element of a
// per-worker-indexed array (the kernels' scatter inbox headers — see
// core.inbox), and its size must be a multiple of the cache line so
// adjacent workers' elements can never share one. The write-site rule above
// only sees writes indexed by the literal workerID ident; the type-level
// contract holds even when the container is indexed through another
// variable, as the barrier apply does.
package falseshare

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"

	"repro/internal/analysis"
)

// cacheLine is the assumed coherence granule. 64 bytes covers every
// platform the kernels target (x86-64, arm64 with 64B lines; arm64 with
// 128B lines is strictly worse, so 64 is the permissive bound).
const cacheLine = 64

// workerIndexName is the identifier the pass treats as a per-worker lane
// number when it appears as an index expression.
const workerIndexName = "workerID"

// Analyzer flags sub-cache-line per-worker element writes.
var Analyzer = &analysis.Analyzer{
	Name: "falseshare",
	Doc: "flags writes to x[workerID] (and x[workerID].f) where x is a slice or array with " +
		"elements smaller than a 64-byte cache line: adjacent workers' slots share a line and " +
		"every write cross-invalidates it; pad the element type to 64 bytes or suppress a " +
		"justified site with //bfs:share-ok; struct types marked //bfs:perworker must be sized " +
		"to a cache-line multiple",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ann := analysis.NewAnnotations(pass.Fset, pass.Files)
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				checkPerWorkerTypes(pass, ann, sizes, n)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(pass, ann, sizes, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, ann, sizes, n.X)
			}
			return true
		})
	}
	return nil, nil
}

// checkPerWorkerTypes reports struct types marked //bfs:perworker whose
// size is not a cache-line multiple. The directive lives in the doc comment
// of the type declaration (or of the TypeSpec, inside a grouped block).
func checkPerWorkerTypes(pass *analysis.Pass, ann *analysis.Annotations, sizes types.Sizes, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE {
		return
	}
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		marked := analysis.GroupMarked(decl.Doc, analysis.DirectivePerWorker) ||
			analysis.GroupMarked(ts.Doc, analysis.DirectivePerWorker) ||
			ann.Marked(ts.Pos(), analysis.DirectivePerWorker)
		if !marked {
			continue
		}
		obj, ok := pass.TypesInfo.Defs[ts.Name]
		if !ok || obj == nil || obj.Type() == nil {
			continue
		}
		if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
			pass.Reportf(ts.Pos(),
				"//bfs:perworker on non-struct type %s: the directive pads per-worker array elements and only applies to structs",
				ts.Name.Name)
			continue
		}
		size := sizes.Sizeof(obj.Type())
		if size%cacheLine != 0 {
			pass.Reportf(ts.Pos(),
				"per-worker struct %s is %d bytes, not a multiple of the %d-byte cache line: adjacent workers' "+
					"elements share a line; add a pad field (see core.inbox)",
				ts.Name.Name, size, cacheLine)
		}
	}
}

// checkWrite reports lhs when it writes through a worker-indexed element
// narrower than a cache line.
func checkWrite(pass *analysis.Pass, ann *analysis.Annotations, sizes types.Sizes, lhs ast.Expr) {
	idx := workerIndexedElem(pass, lhs)
	if idx == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[ast.Expr(idx)]
	if !ok || tv.Type == nil {
		return
	}
	size := sizes.Sizeof(tv.Type)
	if size >= cacheLine {
		return
	}
	if ann.Marked(lhs.Pos(), analysis.DirectiveShareOK) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to %s falsely shares a cache line between workers: element type %s is %d bytes (< %d); "+
			"pad the element to a cache line or annotate //bfs:share-ok",
		types.ExprString(idx), tv.Type, size, cacheLine)
}

// workerIndexedElem returns the innermost x[workerID] index expression that
// lhs writes through, or nil. It accepts a bare element write and a write
// to a field of the element; the container must be a slice or array (maps
// don't place elements adjacently) indexed by exactly the workerID ident.
func workerIndexedElem(pass *analysis.Pass, lhs ast.Expr) *ast.IndexExpr {
	for {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			break
		}
		lhs = sel.X
	}
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	id, ok := idx.Index.(*ast.Ident)
	if !ok || id.Name != workerIndexName {
		return nil
	}
	base, ok := pass.TypesInfo.Types[idx.X]
	if !ok || base.Type == nil {
		return nil
	}
	t := base.Type.Underlying()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array:
		return idx
	}
	return nil
}
