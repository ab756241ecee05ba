package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation directives understood by the bfsvet analyzers and the bfsgate
// compiler-contract tool. A directive is a comment of the form //bfs:<name>
// (or the same inside a /* */ block comment), optionally followed by
// free-text justification. Placement rules:
//
//   - site directives (alloc-ok, bounds-ok, share-ok, singlewriter,
//     detached, arena-held) go on the annotated line or the line directly
//     above it;
//   - region directives (hot) additionally bind when placed on the line
//     directly below the loop/decl header — the first line of the body;
//   - function-scoped directives (singlewriter, detached) may live in the
//     doc comment of the enclosing function declaration.
//
// The directive must open its comment (or its line, inside a multi-line
// block comment): prose that merely mentions "//bfs:hot" mid-sentence is
// not an annotation. See docs/ANALYSIS.md.
const (
	// DirectiveHot marks a loop as a no-allocation zone (hotalloc) and a
	// compiler-contract region (bfsgate: no heap escapes, no unwaived
	// bounds checks).
	DirectiveHot = "bfs:hot"
	// DirectiveAllocOK suppresses hotalloc for one allocation site inside a
	// hot loop (and bfsgate for one escape site); requires a justification.
	DirectiveAllocOK = "bfs:alloc-ok"
	// DirectiveBoundsOK waives one bounds-check site inside a hot loop for
	// bfsgate — used on BCE-hint lines and on checks that safe Go cannot
	// eliminate (CSR/row slicing); requires a justification.
	DirectiveBoundsOK = "bfs:bounds-ok"
	// DirectiveSingleWriter suppresses atomicword for a statement or a whole
	// function whose plain bitset-word writes are single-writer by design.
	DirectiveSingleWriter = "bfs:singlewriter"
	// DirectiveDetached suppresses waitgroupleak for an intentionally
	// fire-and-forget goroutine.
	DirectiveDetached = "bfs:detached"
	// DirectiveArenaHeld suppresses arenarelease for a borrow whose
	// artifact intentionally outlives the borrowing function (handed to the
	// caller, e.g. a kernel shell a constructor returns and Close checks
	// back in); requires a justification naming the release path.
	DirectiveArenaHeld = "bfs:arena-held"
	// DirectiveShareOK suppresses falseshare for a per-worker-indexed write
	// to an unpadded element that is deliberately unpadded (e.g. written
	// once per phase, not per task); requires a justification.
	DirectiveShareOK = "bfs:share-ok"
	// DirectiveNoCAS marks a function (doc comment) as an atomics-free zone:
	// atomicword flags any sync/atomic call or Atomic*-named call inside it. The
	// segmented scatter/merge/resolve kernels carry it to prove the
	// worker-owned frontier path stays plain-store only.
	DirectiveNoCAS = "bfs:nocas"
	// DirectivePerWorker marks a struct type (doc comment) as the element of
	// a per-worker-indexed array: falseshare requires its size to be a
	// multiple of the 64-byte cache line so adjacent workers' elements never
	// share a line (segment headers, merge-accounting cells).
	DirectivePerWorker = "bfs:perworker"
)

// Annotations indexes every comment line of a set of files so analyzers can
// ask "is this position annotated with directive X" in O(1). Multi-line
// block comments contribute each of their lines at its own line number.
type Annotations struct {
	fset *token.FileSet
	// lines maps filename -> line -> directives carried by comments on that
	// line.
	lines map[string]map[int][]string
}

// NewAnnotations indexes the comments of files.
func NewAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, lines: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Slash)
				for j, lineText := range strings.Split(c.Text, "\n") {
					d := directiveOf(lineText, j == 0)
					if d == "" {
						continue
					}
					m := a.lines[pos.Filename]
					if m == nil {
						m = map[int][]string{}
						a.lines[pos.Filename] = m
					}
					m[pos.Line+j] = append(m[pos.Line+j], d)
				}
			}
		}
	}
	return a
}

// Marked reports whether pos's line, or the line directly above it, carries
// the given directive. This is the placement rule for site directives
// (alloc-ok, bounds-ok, share-ok, singlewriter, detached, arena-held).
func (a *Annotations) Marked(pos token.Pos, directive string) bool {
	p := a.fset.Position(pos)
	return a.onLine(p.Filename, p.Line, directive) ||
		a.onLine(p.Filename, p.Line-1, directive)
}

// MarkedRegion reports whether pos's line, the line directly above it, or
// the line directly below it carries the directive. Region directives
// (//bfs:hot on a loop) accept the line-below placement so the annotation
// can open the loop body:
//
//	for v := r.Lo; v < r.Hi; v++ {
//		//bfs:hot phase 2 sweep
func (a *Annotations) MarkedRegion(pos token.Pos, directive string) bool {
	p := a.fset.Position(pos)
	return a.onLine(p.Filename, p.Line, directive) ||
		a.onLine(p.Filename, p.Line-1, directive) ||
		a.onLine(p.Filename, p.Line+1, directive)
}

// MarkedAt is Marked for a position already resolved to filename:line
// outside this fileset — bfsgate matches compiler diagnostics (which carry
// module-root-relative paths) against annotations this way. Placement rule
// is the site rule: the line itself or the line directly above.
func (a *Annotations) MarkedAt(filename string, line int, directive string) bool {
	return a.onLine(filename, line, directive) ||
		a.onLine(filename, line-1, directive)
}

func (a *Annotations) onLine(filename string, line int, directive string) bool {
	for _, d := range a.lines[filename][line] {
		if d == directive {
			return true
		}
	}
	return false
}

// DocMarked reports whether the doc comment of fn carries the directive,
// scoping it to the whole function body.
func DocMarked(fn *ast.FuncDecl, directive string) bool {
	if fn == nil {
		return false
	}
	return GroupMarked(fn.Doc, directive)
}

// GroupMarked reports whether any line of the comment group carries the
// directive — the doc-comment placement rule for declarations that are not
// function declarations (e.g. //bfs:perworker on a struct type).
func GroupMarked(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for j, lineText := range strings.Split(c.Text, "\n") {
			if directiveOf(lineText, j == 0) == directive {
				return true
			}
		}
	}
	return false
}

// directiveOf extracts the bfs: directive a comment line carries, or "".
// first marks the comment's opening line (which still carries the // or /*
// opener); continuation lines of a block comment may be indented and use a
// leading * in the gofmt style. The directive must open the comment text —
// "//bfs:hot reason" is an annotation, "// see the //bfs:hot loops" is
// prose.
func directiveOf(line string, first bool) string {
	s := line
	if first {
		switch {
		case strings.HasPrefix(s, "//"):
			s = s[2:]
		case strings.HasPrefix(s, "/*"):
			s = strings.TrimLeft(s[2:], " \t")
		}
	} else {
		// Block-comment continuation line: strip indentation and the
		// conventional leading asterisk.
		s = strings.TrimLeft(s, " \t")
		s = strings.TrimPrefix(s, "*")
		s = strings.TrimLeft(s, " \t")
	}
	if !strings.HasPrefix(s, "bfs:") {
		return ""
	}
	end := len(s)
	for i := 4; i < len(s); i++ {
		if !isDirectiveChar(s[i]) {
			end = i
			break
		}
	}
	return s[:end]
}

func isDirectiveChar(b byte) bool {
	return b == '-' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}
