// Package arenarelease defines an analyzer that proves every Engine arena
// borrow is handed back on all paths out of the borrowing function.
//
// The execution Engine (internal/core) recycles BFS state through an arena:
// worker pools and whole kernel shells are checked out with
// borrow*/checkout*/BorrowPool and must flow back via the matching
// return*/checkin*/Release* call (or the release closure BorrowPool hands
// out). A borrow that misses its release on an early
// return or error path does not crash anything — the arena just silently
// stops recycling, allocation churn comes back, and the steady-state
// zero-allocation property the engine exists for (and that hotalloc
// enforces inside the loops) erodes without any test failing.
//
// The pass walks each function's structured control flow: after a borrow
// the tracked value is "live", a release (direct, deferred, or inside a
// deferred closure) makes it "done", and any function exit reached while a
// borrow is live is reported. Merging is conservative: a branch that may
// leave the borrow live taints the join point.
//
// The same discipline governs dynamic-graph snapshot pins: DynGraph's
// Acquire/AcquireVersion/Pin (and the server's Backend.Pin in front of
// them) pin an MVCC version whose generation cannot be compacted away until
// the snapshot's own Release method runs. A leaked pin is worse than a leaked
// shell — it blocks generation retirement forever, so the retired-arena
// scrub never fires and memory grows with every compaction. The pass
// tracks Acquire* and Pin calls on those types like borrows, with the release
// being a method on the pinned value itself (snap.Release()). Acquires
// returning (snapshot, error) get the obvious refinement: the arm of an
// `if err != nil` check holds no pin, so bailing out there is not a leak.
//
// A borrow whose artifact intentionally outlives the function — returned
// to the caller, stored in a result struct or a field — must carry
// //bfs:arena-held with a justification naming the release path (e.g.
// "Close checks the shell back in via checkinShell"). The annotation also
// silences the path analysis for deliberately held borrows.
package arenarelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer reports Engine arena borrows that are not released on every
// path out of the borrowing function.
var Analyzer = &analysis.Analyzer{
	Name: "arenarelease",
	Doc: "proves every Engine borrow (borrow*/checkout*/BorrowPool) and every snapshot pin " +
		"(DynGraph.Acquire*/Pin, Backend.Pin) is released on all paths " +
		"(return*/checkin*/Release*/release closure/snapshot Release method, directly or via " +
		"defer); borrows that intentionally outlive the function need //bfs:arena-held plus " +
		"a justification",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ann := analysis.NewAnnotations(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, ann, fn, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, ann, nil, fn.Body)
			}
			return true
		})
	}
	return nil, nil
}

// borrow is one tracked arena checkout: the variable it was assigned to,
// the optional release-closure variable (BorrowPool's second result), the
// optional companion error (snapshot acquires return one; its non-nil arm
// holds no pin), and the statement performing the borrow.
type borrow struct {
	obj     types.Object // borrowed value
	release types.Object // release closure, or nil
	errObj  types.Object // companion error result, or nil
	call    *ast.CallExpr
	stmt    ast.Stmt
}

// checkFunc analyzes one function body in isolation. Nested function
// literals are analyzed by their own checkFunc invocation (the outer walk
// visits them), so the statement walk here never descends into them except
// to look for releases inside deferred closures.
func checkFunc(pass *analysis.Pass, ann *analysis.Annotations, decl *ast.FuncDecl, body *ast.BlockStmt) {
	borrows := collectBorrows(pass, body)
	for _, b := range borrows {
		if waived(pass, ann, decl, b.call.Pos()) {
			continue
		}
		if b.obj == nil {
			pass.Reportf(b.call.Pos(),
				"arena borrow %s is stored outside the function (or discarded) at the call site; "+
					"annotate //bfs:arena-held with the release path if the artifact intentionally outlives this function",
				callName(b.call))
			continue
		}
		if esc := escapeUse(pass, body, b); esc != nil {
			pass.Reportf(b.call.Pos(),
				"arena borrow %s escapes this function (%s); annotate //bfs:arena-held with the release path if intentional",
				b.obj.Name(), esc.what)
			continue
		}
		w := &walker{pass: pass, b: b}
		st, terminated := w.walkStmts(body.List, stNotYet)
		if !terminated && st == stLive {
			pass.Reportf(b.call.Pos(),
				"arena borrow %s is not released on the fall-through path out of the function", b.obj.Name())
		}
	}
}

// waived reports whether the borrow site (or the whole enclosing function,
// via its doc comment) carries //bfs:arena-held.
func waived(pass *analysis.Pass, ann *analysis.Annotations, decl *ast.FuncDecl, pos token.Pos) bool {
	if ann.Marked(pos, analysis.DirectiveArenaHeld) {
		return true
	}
	return decl != nil && analysis.DocMarked(decl, analysis.DirectiveArenaHeld)
}

// collectBorrows finds the borrow calls made directly by this function
// (not by nested literals) and resolves their assignment form. The
// ancestor stack identifies each call's innermost enclosing statement.
func collectBorrows(pass *analysis.Pass, body *ast.BlockStmt) []*borrow {
	var borrows []*borrow
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed as its own function; not pushed, so no pop
		}
		if call, ok := n.(*ast.CallExpr); ok && isBorrowCall(pass, call) {
			var stmt ast.Stmt
			for i := len(stack) - 1; i >= 0; i-- {
				if s, ok := stack[i].(ast.Stmt); ok {
					stmt = s
					break
				}
			}
			borrows = append(borrows, resolveBorrow(pass, call, stmt))
		}
		stack = append(stack, n)
		return true
	})
	return borrows
}

// resolveBorrow classifies how the borrow's results are bound. Only a
// plain `x := borrow(...)` / `x = ...` / `x, release := ...` form yields a
// trackable local; anything else (indexed or field LHS, direct return,
// call argument) leaves obj nil, which checkFunc treats as held.
func resolveBorrow(pass *analysis.Pass, call *ast.CallExpr, stmt ast.Stmt) *borrow {
	b := &borrow{call: call, stmt: stmt}
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return b
	}
	if len(assign.Lhs) >= 1 {
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isLocal(pass, obj) {
				b.obj = obj
			}
		}
	}
	if len(assign.Lhs) == 2 {
		if id, ok := assign.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			// BorrowPool's second result is the release closure; a snapshot
			// acquire's second result is its error. Classify by type so the
			// error is never mistaken for a release.
			obj := pass.TypesInfo.ObjectOf(id)
			switch {
			case obj == nil:
			case isErrorType(obj.Type()):
				b.errObj = obj
			default:
				b.release = obj
			}
		}
	}
	return b
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// isLocal reports whether obj is declared inside a function (not at
// package scope): assigning a borrow straight to a package variable is an
// escape, not a trackable local.
func isLocal(pass *analysis.Pass, obj types.Object) bool {
	scope := obj.Parent()
	return scope != nil && scope != pass.Pkg.Scope() && scope != types.Universe
}

// isBorrowCall matches methods named borrow*/Borrow*/checkout*/Checkout*
// on a named type Engine, and snapshot pins: Acquire* on DynGraph, Pin on
// DynGraph or Backend (any package).
func isBorrowCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	lower := strings.ToLower(sel.Sel.Name)
	if strings.HasPrefix(lower, "borrow") || strings.HasPrefix(lower, "checkout") {
		return isMethodOn(pass, sel, "Engine")
	}
	if strings.HasPrefix(lower, "acquire") {
		return isMethodOn(pass, sel, "DynGraph")
	}
	if sel.Sel.Name == "Pin" {
		return isMethodOn(pass, sel, "Backend", "DynGraph")
	}
	return false
}

// isReleaseCall matches methods named return*/Return*/checkin*/Checkin*/
// Release* on Engine. (Snapshot pins release through a method on the
// pinned value itself; isReleaseOfBorrow handles that form.)
func isReleaseCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	lower := strings.ToLower(sel.Sel.Name)
	if !strings.HasPrefix(lower, "return") && !strings.HasPrefix(lower, "checkin") &&
		!strings.HasPrefix(lower, "release") {
		return false
	}
	return isMethodOn(pass, sel, "Engine")
}

// isMethodOn reports whether sel is a method selection whose receiver is
// one of the given named types (struct or interface, pointer or value).
func isMethodOn(pass *analysis.Pass, sel *ast.SelectorExpr, typeNames ...string) bool {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	t := selection.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, want := range typeNames {
		if named.Obj().Name() == want {
			return true
		}
	}
	return false
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "call"
}

// escapeNote describes why a borrow is considered escaping.
type escapeNote struct{ what string }

// escapeUse scans the whole function body (including nested literals,
// which share the enclosing scope) for uses that hand the borrowed value
// beyond this function: returning it, embedding it in a composite literal,
// or assigning it to anything but a plain local identifier.
func escapeUse(pass *analysis.Pass, body *ast.BlockStmt, b *borrow) *escapeNote {
	var note *escapeNote
	ast.Inspect(body, func(n ast.Node) bool {
		if note != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				// Uses inside a call are consumption, not an escape:
				// `return snap.RunBatch(…)` returns the call's result, the
				// borrow itself stays local. (A callee returning its own
				// argument is invisible here; that handoff needs the
				// annotation on its own acquire site.)
				if usesObjOutsideCalls(pass, res, b.obj) {
					note = &escapeNote{"returned to the caller"}
					return false
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if usesObj(pass, elt, b.obj) {
					note = &escapeNote{"stored in a composite literal"}
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !usesObj(pass, rhs, b.obj) || rhs == b.call {
					continue
				}
				// Parallel assignment may have fewer RHS than LHS only in
				// the 1-RHS multi-value form, which a borrow never feeds.
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && (id.Name == "_" || isLocalIdent(pass, id)) {
						continue // local alias (e.g. buffer swap), not an escape
					}
				}
				note = &escapeNote{"assigned beyond the local scope"}
				return false
			}
		}
		return true
	})
	return note
}

func isLocalIdent(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && isLocal(pass, obj)
}

// usesObjOutsideCalls reports whether expr references obj outside any call
// expression in its subtree (calls consume the borrow without handing the
// value itself to the caller of the enclosing function).
func usesObjOutsideCalls(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.CallExpr); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// usesObj reports whether expr references obj anywhere in its subtree.
func usesObj(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// Path states: before the borrow executes, holding it, released.
const (
	stNotYet = iota
	stLive
	stDone
)

// walker runs the structured control-flow analysis for one borrow.
type walker struct {
	pass *analysis.Pass
	b    *borrow
}

// walkStmts processes a statement list and returns the state after normal
// completion plus whether every path through the list terminated (returned).
func (w *walker) walkStmts(stmts []ast.Stmt, st int) (int, bool) {
	for _, stmt := range stmts {
		var terminated bool
		st, terminated = w.walkStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *walker) walkStmt(stmt ast.Stmt, st int) (int, bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		bodyIn := st
		if st == stLive && w.isErrCheck(s.Cond) {
			// `x, err := Acquire…; if err != nil { return … }`: the failed
			// acquire pinned nothing, so the error arm holds no borrow.
			bodyIn = stDone
		}
		bodySt, bodyTerm := w.walkStmts(s.Body.List, bodyIn)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.walkStmt(s.Else, st)
		}
		return mergeBranches(st, []branch{{bodySt, bodyTerm}, {elseSt, elseTerm}})
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		return w.walkLoopBody(s.Body, st)
	case *ast.RangeStmt:
		return w.walkLoopBody(s.Body, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkSwitch(stmt, st)
	case *ast.ReturnStmt:
		if st == stLive {
			w.pass.Reportf(s.Pos(),
				"early return leaks arena borrow %s (borrowed at %s); release it or use defer",
				w.b.obj.Name(), w.pass.Fset.Position(w.b.call.Pos()))
		}
		return st, true
	default:
		if stmt == w.b.stmt {
			return stLive, false
		}
		if w.releasesIn(stmt) {
			return stDone, false
		}
		return st, false
	}
}

// walkLoopBody analyzes a loop body. The body may run zero times, so a
// release inside it does not clear the borrow; a borrow made inside it
// (and not released by the iteration's end) leaves the loop live.
func (w *walker) walkLoopBody(body *ast.BlockStmt, st int) (int, bool) {
	bodySt, bodyTerm := w.walkStmts(body.List, st)
	if bodySt == stLive && !bodyTerm {
		return stLive, false
	}
	return st, false
}

// walkSwitch merges the clauses of a switch/type-switch/select. Without a
// default clause the zero-match path keeps the incoming state.
func (w *walker) walkSwitch(stmt ast.Stmt, st int) (int, bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		hasDefault = true // select always takes some comm clause (or its default)
	}
	var branches []branch
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			body = cc.Body
		case *ast.CommClause:
			body = cc.Body
		}
		bSt, bTerm := w.walkStmts(body, st)
		branches = append(branches, branch{bSt, bTerm})
	}
	if !hasDefault {
		branches = append(branches, branch{st, false})
	}
	return mergeBranches(st, branches)
}

type branch struct {
	st         int
	terminated bool
}

// mergeBranches joins alternative paths: live taints the join; done holds
// only when every surviving path released; all-terminated ends the walk.
func mergeBranches(in int, branches []branch) (int, bool) {
	surviving := branches[:0:0]
	for _, b := range branches {
		if !b.terminated {
			surviving = append(surviving, b)
		}
	}
	if len(surviving) == 0 {
		return in, true
	}
	allDone := true
	for _, b := range surviving {
		if b.st == stLive {
			return stLive, false
		}
		if b.st != stDone {
			allDone = false
		}
	}
	if allDone {
		return stDone, false
	}
	return in, false
}

// isErrCheck reports whether cond is `err != nil` over the borrow's
// companion error result (the second value of a snapshot acquire).
func (w *walker) isErrCheck(cond ast.Expr) bool {
	if w.b.errObj == nil {
		return false
	}
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && w.pass.TypesInfo.ObjectOf(id) == w.b.errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isErr(bin.X) && isNil(bin.Y)) || (isErr(bin.Y) && isNil(bin.X))
}

// releasesIn reports whether a leaf statement releases the walker's
// borrow: a matching Engine release call with the borrowed variable among
// its arguments, a call of the borrow's release closure, or either of
// those inside a deferred closure.
func (w *walker) releasesIn(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Only deferred closures run on function exit; releases inside
			// other literals are analyzed when the literal itself is.
			if _, isDefer := stmt.(*ast.DeferStmt); !isDefer {
				return false
			}
			return true
		case *ast.CallExpr:
			if w.isReleaseOfBorrow(n) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func (w *walker) isReleaseOfBorrow(call *ast.CallExpr) bool {
	// release closure from BorrowPool: `release()` / `defer release()`.
	if id, ok := call.Fun.(*ast.Ident); ok {
		return w.b.release != nil && w.pass.TypesInfo.ObjectOf(id) == w.b.release
	}
	// Snapshot pins release through the pinned value itself:
	// `snap.Release()` / `defer snap.Release()`.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok &&
			strings.HasPrefix(strings.ToLower(sel.Sel.Name), "release") &&
			w.pass.TypesInfo.ObjectOf(id) == w.b.obj {
			return true
		}
	}
	if !isReleaseCall(w.pass, call) {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok && w.pass.TypesInfo.ObjectOf(id) == w.b.obj {
			return true
		}
	}
	return false
}
