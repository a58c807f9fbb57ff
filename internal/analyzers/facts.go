package analyzers

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural layer of nrlint: per-function
// facts computed bottom-up over the module's import DAG, so a pass
// analyzing package P can ask about the functions P calls in packages
// already analyzed. The driver (Loader.RunDirs) orders packages
// dependencies-first and runs every analyzer's Facts hook before any
// Run hook; the store lives in memory for one run.
//
// Keys must be stable across separately type-checked views of the
// same package: the source importer materializes its own
// types.Object for census.Engine.ErrorBudget when sweep imports
// census, distinct from the object created when census itself is
// checked. FactKey therefore canonicalizes to a string —
// "pkgpath.Func" for package functions, "pkgpath.(Recv).Method" for
// methods — and generic functions are keyed by their origin (the
// uninstantiated declaration), so every instantiated call edge shares
// the origin's summary.

// A FuncFact is the interprocedural summary of one function. The
// zero value means "nothing known", which analyzers must treat as
// "assume safe / assume sinking" — facts only ever make checks
// stricter where a summary proves a violation, never looser.
type FuncFact struct {
	// Tainted: the function transitively reaches a nondeterminism
	// source — time.Now/time.Since/time.Sleep, math/rand, map-range
	// iteration (the sorted-keys key-collection loop is exempt),
	// goroutine append fan-in, or an obs.WallClock/WallSleeper
	// literal. TaintReason is the human-readable chain for
	// diagnostics.
	Tainted     bool
	TaintReason string

	// Deterministic: the defining package carries the
	// //nrlint:deterministic directive. The determinism pass does not
	// report calls into tainted functions of such packages — it
	// already flags the source site itself.
	Deterministic bool

	// BudgetResults lists result indices that carry budget mass: a
	// result typed Budget, a canonical ErrorBudget/QuantBudget
	// accessor, or a result position whose return expressions are
	// budget expressions (the cross-package wrapper case a
	// statement-local check cannot see).
	BudgetResults []int

	// HasBudgetParam / SinksBudget summarize the parameter side:
	// whether the function takes a Budget-typed parameter, and
	// whether every such parameter provably reaches a sink (a
	// return, a += onto a budget accumulator, or a further sinking
	// call) before scope ends. A call passing a budget value to a
	// function with HasBudgetParam && !SinksBudget does NOT
	// discharge the caller's obligation to ledger that value.
	HasBudgetParam bool
	SinksBudget    bool
}

// Facts is the cross-package store, keyed by FactKey strings.
type Facts struct {
	funcs map[string]FuncFact
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{funcs: map[string]FuncFact{}} }

// Func returns the fact for key, and whether one was recorded.
func (f *Facts) Func(key string) (FuncFact, bool) {
	fact, ok := f.funcs[key]
	return fact, ok
}

// SetFunc records fact under key (no-op on an empty key, which
// FactKey returns for functions that cannot be named stably).
func (f *Facts) SetFunc(key string, fact FuncFact) {
	if key == "" {
		return
	}
	f.funcs[key] = fact
}

// FactKey canonicalizes a function object to its cross-package key,
// or "" when no stable key exists (interface methods, builtins).
// Generic functions and methods are keyed by their origin, so facts
// computed on the declaration cover every instantiation.
func FactKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := ""
	if r := sig.Recv(); r != nil {
		t := r.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := types.Unalias(t).(*types.Named)
		if !isNamed {
			return "" // interface or otherwise unnamed receiver
		}
		recv = "(" + named.Obj().Name() + ")."
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// calleeFunc resolves the static callee of call to a function object,
// unwrapping generic instantiation syntax (F[T](…)). It returns nil
// for calls through function values, builtins, conversions and
// interface-method dispatch — sites with no statically known body,
// which the interprocedural passes treat as unknown (assume safe /
// assume sinking).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	var fn *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[f]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			// Package-qualified function: pkg.F.
			fn, _ = pass.Info.Uses[f.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil // dynamic dispatch: no statically known body
		}
	}
	return fn.Origin()
}
