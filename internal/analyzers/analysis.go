// Package analyzers is nrlint's home: a suite of project-specific
// static-analysis passes that mechanically enforce the contracts the
// repo otherwise establishes only by convention and golden tests —
// bit-identical results at any worker count (determinism), int64
// census counters that never silently wrap or narrow (overflow),
// every approximation charged to the Lemma-3 error budget (budget),
// and write-only observability in deterministic code (obswrite). One
// pass per contract: determinism and budget each compute per-function
// facts in a Facts hook (facts.go), so their Run hooks also see
// through calls into other packages.
//
// The framework deliberately mirrors the golang.org/x/tools
// go/analysis API shape (Analyzer, Pass, Diagnostic) so the passes
// can be ported to a real multichecker the day the x/tools dependency
// is available; this build environment has no network and no module
// cache, so the harness underneath is the standard library only:
// go/parser + go/types with the stdlib source importer (load.go).
//
// Suppression policy: a finding is silenced only by an explicit,
// justified directive on the flagged line or the line above it:
//
//	//nrlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// A bare suppression (missing the `-- reason` tail) is itself a
// finding, so CI fails on any unexplained allow. See suppress.go.
//
// Package opt-in: the determinism, obswrite and overflow passes
// apply only to packages that declare the contract with a
// `//nrlint:deterministic` comment (conventionally above the package
// clause); the budget pass is repo-wide, since budget-carrying types
// may flow anywhere.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named pass. Run inspects a fully type-checked
// package via its Pass and reports findings; it returns an error only
// for internal failures, never for findings. Facts, when non-nil, is
// the interprocedural half: the driver calls every analyzer's Facts
// hook on every package — dependencies first, and before any Run hook
// of that package — so Run can consult summaries of the functions the
// package calls, including its own (see facts.go).
type Analyzer struct {
	Name  string
	Doc   string
	Run   func(*Pass) error
	Facts func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts is the cross-package store: populated bottom-up over the
	// import DAG by the analyzers' Facts hooks, consulted by Run.
	Facts *Facts

	report func(Diagnostic)
}

// A Diagnostic is one finding, positioned so the driver can format
// file:line:col and match suppression directives.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expr, or nil when the checker recorded
// none.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Info.Types[expr]; ok {
		return tv.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// basicKind returns the basic kind of t's underlying type, or
// types.Invalid when t is not basic (or nil).
func basicKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedTypeName returns the name of t after stripping one pointer
// level, or "" when t is unnamed. It is the hook the name-based
// checks (Rand receivers, Budget values) hang off, which keeps the
// analyzers testable on self-contained fixtures.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// All returns the full suite in stable order. The driver and the
// fixture runner both iterate this.
func All() []*Analyzer {
	as := []*Analyzer{
		DeterminismAnalyzer,
		OverflowAnalyzer,
		BudgetAnalyzer,
		ObsWriteAnalyzer,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves one analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
