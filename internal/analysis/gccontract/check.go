package gccontract

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
)

// Violation is one gate failure.
type Violation struct {
	// Pos is "file:line:col" for site violations, or the function name for
	// budget/inline violations.
	Pos string
	Msg string
}

func (v Violation) String() string { return v.Pos + ": " + v.Msg }

// Report is the outcome of checking collected diagnostics against a
// contract.
type Report struct {
	// Hot are annotation-controlled violations: unwaived escapes or bounds
	// checks inside //bfs:hot loops. Never suppressed, not even by -update.
	Hot []Violation
	// Budget are manifest-controlled violations: functions over their
	// recorded allowance, with diagnostics but no manifest entry, or with a
	// manifest entry but no declaration left in the audited packages.
	Budget []Violation
	// Inline are must_inline demotions.
	Inline []Violation
	// Advisories are non-fatal notes: budgets that can ratchet down, and
	// entries of declared functions that compile clean now.
	Advisories []string
	// Observed is the per-function {escapes, bounds_checks} actually seen,
	// the payload -update writes back.
	Observed map[string]Budget
	// CanInline is the set of audited functions the compiler reported
	// inlinable.
	CanInline map[string]bool
}

// Failed reports whether the gate should exit nonzero, given whether budget
// violations are being rewritten by -update.
func (r *Report) Failed(update bool) bool {
	if len(r.Hot) > 0 || len(r.Inline) > 0 {
		return true
	}
	return !update && len(r.Budget) > 0
}

// Check evaluates diags against the contract using idx for position
// resolution.
func Check(c *Contract, diags []Diag, idx *Index) *Report {
	r := &Report{
		Observed:  map[string]Budget{},
		CanInline: map[string]bool{},
	}
	cannotInline := map[string]string{} // full name -> compiler reason

	for _, d := range diags {
		if !idx.Audited(d.File) {
			continue // dependency outside the audited set
		}
		switch d.Kind {
		case KindCanInline:
			r.CanInline[idx.PkgOf(d.File)+"."+d.Name] = true
			continue
		case KindCannotInline:
			cannotInline[idx.PkgOf(d.File)+"."+d.Name] = d.Message
			continue
		}

		fn, ok := idx.FuncAt(d.File, d.Line)
		if !ok {
			// Package-scope initializer or generated code; attribute to a
			// per-file pseudo-function so it still shows up in budgets.
			fn = idx.PkgOf(d.File) + ".<init>"
		}
		pos := fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
		b := r.Observed[fn]
		switch d.Kind {
		case KindEscape:
			b.Escapes++
			if idx.InHot(d.File, d.Line) && !idx.Waived(d.File, d.Line, analysis.DirectiveAllocOK) {
				r.Hot = append(r.Hot, Violation{pos, fmt.Sprintf(
					"%s inside a //bfs:hot loop (%s); hoist the allocation or waive with //bfs:alloc-ok + justification",
					d.Message, fn)})
			}
		case KindBounds:
			b.BoundsChecks++
			if idx.InHot(d.File, d.Line) && !idx.Waived(d.File, d.Line, analysis.DirectiveBoundsOK) {
				r.Hot = append(r.Hot, Violation{pos, fmt.Sprintf(
					"%s inside a //bfs:hot loop (%s); add a BCE hint (len guard / reslice) or waive with //bfs:bounds-ok + justification",
					d.Message, fn)})
			}
		}
		r.Observed[fn] = b
	}

	// Budget comparison: observed vs manifest.
	for fn, got := range r.Observed {
		want, listed := c.Functions[fn]
		if !listed {
			r.Budget = append(r.Budget, Violation{fn, fmt.Sprintf(
				"not in contract but compiles with %d escape(s), %d bounds check(s); run bfsgate -update if intended",
				got.Escapes, got.BoundsChecks)})
			continue
		}
		if got.Escapes > want.Escapes {
			r.Budget = append(r.Budget, Violation{fn, fmt.Sprintf(
				"escapes %d > allowed %d; fix the regression or run bfsgate -update if intended",
				got.Escapes, want.Escapes)})
		} else if got.Escapes < want.Escapes {
			r.Advisories = append(r.Advisories, fmt.Sprintf(
				"%s: escapes improved (%d < allowed %d); run bfsgate -update to ratchet down",
				fn, got.Escapes, want.Escapes))
		}
		if got.BoundsChecks > want.BoundsChecks {
			r.Budget = append(r.Budget, Violation{fn, fmt.Sprintf(
				"bounds checks %d > allowed %d; fix the regression or run bfsgate -update if intended",
				got.BoundsChecks, want.BoundsChecks)})
		} else if got.BoundsChecks < want.BoundsChecks {
			r.Advisories = append(r.Advisories, fmt.Sprintf(
				"%s: bounds checks improved (%d < allowed %d); run bfsgate -update to ratchet down",
				fn, got.BoundsChecks, want.BoundsChecks))
		}
	}
	for fn := range c.Functions {
		if _, ok := r.Observed[fn]; ok {
			continue
		}
		if !idx.Declared(fn) {
			r.Budget = append(r.Budget, Violation{fn,
				"listed in contract but no longer declared in the audited packages; delete the entry or run bfsgate -update"})
			continue
		}
		r.Advisories = append(r.Advisories, fmt.Sprintf(
			"%s: listed in contract but compiles clean now; run bfsgate -update to drop it", fn))
	}

	// Must-inline list.
	for _, fn := range c.MustInline {
		if r.CanInline[fn] {
			continue
		}
		if reason, ok := cannotInline[fn]; ok {
			r.Inline = append(r.Inline, Violation{fn, fmt.Sprintf(
				"must_inline function demoted: %s", reason)})
		} else {
			r.Inline = append(r.Inline, Violation{fn,
				"must_inline function not reported inlinable (renamed, removed, or moved out of the audited packages?)"})
		}
	}

	sortViolations(r.Hot)
	sortViolations(r.Budget)
	sortViolations(r.Inline)
	sort.Strings(r.Advisories)
	return r
}

func sortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Pos != v[j].Pos {
			return v[i].Pos < v[j].Pos
		}
		return v[i].Msg < v[j].Msg
	})
}
