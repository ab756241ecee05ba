// Package hotalloc defines an analyzer that flags allocations inside loops
// annotated //bfs:hot.
//
// The annotated loops are the per-vertex/per-edge inner loops of the BFS
// kernels (MS-PBFS top-down and bottom-up sweeps, SMS-PBFS chunk scans, the
// Beamer bottom-up sweep) and the scheduler's task-fetch loop. These run
// billions of iterations on large graphs; a single make, append, map or
// closure allocation inside one of them turns into GC pressure that
// dominates the traversal time ("Performance-Driven Optimization of Parallel
// BFS" attributes most single-node BFS slowdowns to exactly this class of
// per-edge overhead). The pass makes the no-allocation property checkable:
// annotate the loop once, and any future allocation inside it fails vet.
//
// An allocation that is intentional (for example a once-per-phase buffer
// grown inside a rarely-taken branch) is suppressed with //bfs:alloc-ok plus
// a justification on the allocation line.
//
// The pass also enforces the tracezero rule: calls to the observability
// layer's method surface (receiver types Tracer, Traversal, SpanHandle —
// internal/obs) inside a //bfs:hot loop must sit behind an explicit
// `recv != nil` fast-path guard. The obs methods are nil-receiver-safe, but
// inside a hot loop the guard is what keeps the disabled-tracing cost to a
// single predictable branch and — because Go evaluates arguments before the
// callee's own nil check — is the only place argument construction can be
// skipped. Allocations inside the guarded block are still flagged by the
// ordinary rules: enabling tracing must not start allocating per edge.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags allocation sites inside //bfs:hot loops.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags make/new/append calls, New*/Create* constructor calls, slice/map composite " +
		"literals and closures inside loops annotated //bfs:hot; methods on an execution Engine " +
		"(the arena borrow/return paths) are exempt; tracer-surface " +
		"calls (Tracer/Traversal/SpanHandle receivers) must sit behind a `recv != nil` guard " +
		"(tracezero); suppress a justified site with //bfs:alloc-ok",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ann := analysis.NewAnnotations(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !ann.MarkedRegion(n.Pos(), analysis.DirectiveHot) {
				return true
			}
			checkHotBody(pass, ann, body)
			// Nested loops are part of the hot region; don't re-enter them
			// even if they carry their own (redundant) annotation.
			return false
		})
	}
	return nil, nil
}

// checkHotBody reports every allocation site in the subtree rooted at body,
// plus tracer-surface calls outside a nil-guard fast path (tracezero).
func checkHotBody(pass *analysis.Pass, ann *analysis.Annotations, body *ast.BlockStmt) {
	guards := collectNilGuards(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, name, ok := tracerMethod(pass, n); ok {
				if !guards.covers(recv, n.Pos()) {
					report(pass, ann, n.Pos(),
						"tracezero: call to %s.%s inside a //bfs:hot loop must sit behind an `%s != nil` fast-path guard",
						recv, name, recv)
				}
				return true
			}
			if name := builtinAllocName(pass, n); name != "" {
				report(pass, ann, n.Pos(), "call to %s allocates inside a //bfs:hot loop", name)
			} else if name := constructorCallName(pass, n); name != "" {
				report(pass, ann, n.Pos(),
					"call to constructor %s allocates inside a //bfs:hot loop; borrow from the engine arena or hoist it out", name)
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(pass, ann, n.Pos(), "slice literal allocates inside a //bfs:hot loop")
			case *types.Map:
				report(pass, ann, n.Pos(), "map literal allocates inside a //bfs:hot loop")
			}
		case *ast.FuncLit:
			report(pass, ann, n.Pos(), "closure allocates inside a //bfs:hot loop")
			// Still descend: allocations inside the closure body run on the
			// hot path too if the closure is called here.
		}
		return true
	})
}

// builtinAllocName returns the name of the builtin if call is one of the
// allocating builtins (make, new, append), or "".
func builtinAllocName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	switch id.Name {
	case "make", "new", "append":
		return id.Name
	}
	return ""
}

// constructorCallName returns the callee name if call invokes a
// constructor-style function or method (New*/Create* prefix, the
// repository's naming convention for allocating builders: sched.NewPool,
// bitset.NewState, sched.CreateTasks, ...), or "". Methods on the arena
// receiver types are exempt: the engine's borrow/checkout surface is the
// sanctioned arena-recycled (steady-state allocation-free) way to obtain
// state inside a hot region.
func constructorCallName(pass *analysis.Pass, call *ast.CallExpr) string {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && isArenaRecv(sel) {
			return ""
		}
	default:
		return ""
	}
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Create") {
		return name
	}
	return ""
}

// arenaRecvNames are the named receiver types whose method surface is
// engine-managed: calls on them never allocate in steady state, so a
// New*/Create*-prefixed method name is not an allocation signal. Engine is
// the core arena.
var arenaRecvNames = map[string]bool{
	"Engine": true,
}

// isArenaRecv reports whether sel is a method selection on one of the
// arena receiver types (possibly via a pointer), in any package.
func isArenaRecv(sel *types.Selection) bool {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && arenaRecvNames[named.Obj().Name()]
}

// tracerTypeNames are the named receiver types of the observability
// surface (internal/obs) the tracezero rule applies to. Matching is by
// type name so the golden testdata (standard-library imports only) can
// model the surface with local types.
var tracerTypeNames = map[string]bool{
	"Tracer":     true,
	"Traversal":  true,
	"SpanHandle": true,
}

// tracerMethod reports whether call is a method call on a tracer-surface
// type, returning the receiver expression (rendered as source) and the
// method name.
func tracerMethod(pass *analysis.Pass, call *ast.CallExpr) (recv, name string, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	sel, isMethod := pass.TypesInfo.Selections[fun]
	if !isMethod {
		return "", "", false
	}
	t := sel.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || !tracerTypeNames[named.Obj().Name()] {
		return "", "", false
	}
	return types.ExprString(fun.X), fun.Sel.Name, true
}

// nilGuard is one `expr != nil` condition and the statement range it
// dominates (the if body).
type nilGuard struct {
	expr     string
	from, to token.Pos
}

type nilGuards []nilGuard

// covers reports whether pos lies inside a region guarded by a nil check
// on exactly the given receiver expression.
func (g nilGuards) covers(recv string, pos token.Pos) bool {
	for _, guard := range g {
		if guard.expr == recv && guard.from <= pos && pos <= guard.to {
			return true
		}
	}
	return false
}

// collectNilGuards gathers every `if expr != nil { ... }` region in the
// subtree, including conjuncts of && conditions (`if expr != nil && more`).
func collectNilGuards(body *ast.BlockStmt) nilGuards {
	var guards nilGuards
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, expr := range nilCheckedExprs(ifStmt.Cond) {
			guards = append(guards, nilGuard{expr: expr, from: ifStmt.Body.Pos(), to: ifStmt.Body.End()})
		}
		return true
	})
	return guards
}

// nilCheckedExprs extracts the expressions proven non-nil by cond: the X of
// every `X != nil` conjunct.
func nilCheckedExprs(cond ast.Expr) []string {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LAND:
		return append(nilCheckedExprs(be.X), nilCheckedExprs(be.Y)...)
	case token.NEQ:
		if isNilIdent(be.Y) {
			return []string{types.ExprString(be.X)}
		}
		if isNilIdent(be.X) {
			return []string{types.ExprString(be.Y)}
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// report emits a diagnostic unless the site is suppressed with
// //bfs:alloc-ok on its own line or the line above.
func report(pass *analysis.Pass, ann *analysis.Annotations, pos token.Pos, format string, args ...interface{}) {
	if ann.Marked(pos, analysis.DirectiveAllocOK) {
		return
	}
	pass.Reportf(pos, format, args...)
}
