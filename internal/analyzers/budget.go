package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
)

// BudgetAnalyzer enforces the Lemma-3 accounting contract repo-wide:
// every approximation mass an engine accrues must travel with the
// result, never be dropped on the floor. Budgets are recognized by
// the named type Budget (census.Budget and anything mirroring it) and
// by the canonical accessor/field names ErrorBudget and QuantBudget,
// so the check also binds code written before the named type existed
// and self-contained test fixtures. It flags:
//
//   - call sites that discard a budget-carrying result: a call used as
//     a bare statement, or a budget-carrying result assigned to the
//     blank identifier;
//   - plain `=` assignment to a budget field from a raw (non-budget)
//     non-zero expression: accumulators compose with `+=` (or by
//     transferring an already-budget-typed value, e.g. snapshotting
//     eng.ErrorBudget() into a result field); a raw overwrite is the
//     PR-5 vacuous-certificate bug class, where accrued mass vanishes
//     from the ledger. Zeroing (`= 0`) is reset, always allowed;
//   - a budget-carrying call result captured in a local that never
//     flows into a return, a `+=` onto a budget accumulator, or a
//     sinking call before its scope ends (def-use tracking, see
//     flowBudget). Reading a budget FIELD into a local is not an
//     obligation — the mass still lives in the source struct — but a
//     call result (an accessor snapshot, a trial's returned budget) is
//     the only copy, and dropping it is exactly the Lemma-3 leak.
//
// Which results of a call carry budget is decided in one place,
// budgetResults: the Budget type, a canonical accessor, or the
// callee's fact. The Facts hook (budgetFlowFacts) summarizes every
// function: which result positions carry budget (including return
// expressions that erase the type — the cross-package wrapper case)
// and whether its Budget-typed parameters provably reach a sink. A
// call therefore does not count as a discharge when the callee's
// summary says the budget parameter goes nowhere: `helper.Mag(b)`
// with `func Mag(b Budget) bool { return b > 0.5 }` drops b's mass.
// Unknown callees (stdlib, function values, un-analyzed packages) are
// assumed to sink — the CLIs legitimately hand budgets to fmt — so
// facts only tighten the check where a body was analyzed.
var BudgetAnalyzer = &Analyzer{
	Name:  "budget",
	Doc:   "flag discarded ErrorBudget/QuantBudget values, raw overwrites of budget accumulators, and captured budget call results that never reach a return, a += accumulator or a sinking call (interprocedural summaries via facts)",
	Run:   runBudget,
	Facts: budgetFlowFacts,
}

// budgetNames are the canonical budget accessor/field identifiers.
var budgetNames = map[string]bool{
	"ErrorBudget": true,
	"QuantBudget": true,
}

// budgetFieldNames additionally covers unexported accumulator fields.
var budgetFieldNames = map[string]bool{
	"ErrorBudget": true, "QuantBudget": true,
	"budget": true, "qbudget": true,
}

func runBudget(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && slices.Contains(budgetResults(pass, call), true) {
					pass.Reportf(n.Pos(), "budget-carrying result of %s is discarded: every approximation mass must reach the caller's ledger (assign and propagate it, or justify with //nrlint:allow budget -- <reason>)", calleeName(call))
				}
			case *ast.AssignStmt:
				checkBudgetAssign(pass, n)
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				for obj, pos := range flowBudget(pass, n.Body, budgetCallObligations(pass, n.Body)) {
					pass.Reportf(pos, "budget value captured in %s never reaches a return, a += accumulator, or a sinking call before scope ends: the accrued mass is dropped from the ledger (propagate it, or justify with //nrlint:allow budget -- <reason>)", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// checkBudgetAssign flags blank-discards of budget values and raw
// overwrites of budget fields.
func checkBudgetAssign(pass *Pass, as *ast.AssignStmt) {
	// Blank discard: `_ = budgetExpr` or `v, _ := callReturningBudget()`.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for i, carry := range budgetResults(pass, call) {
				if carry && i < len(as.Lhs) && isBlank(as.Lhs[i]) {
					pass.Reportf(as.Lhs[i].Pos(), "budget result %d of %s is discarded into _; propagate it or justify with //nrlint:allow budget -- <reason>", i, calleeName(call))
				}
			}
		}
	} else {
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) && isBlank(lhs) && isBudgetExpr(pass, as.Rhs[i]) {
				pass.Reportf(lhs.Pos(), "budget value discarded into _; propagate it or justify with //nrlint:allow budget -- <reason>")
			}
		}
	}
	// Raw overwrite: plain `=` to a budget field from a non-budget,
	// non-zero RHS.
	if as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isBudgetLHS(pass, lhs) {
			continue
		}
		rhs := as.Rhs[i]
		if isZeroConst(pass, rhs) || isBudgetExpr(pass, rhs) {
			continue
		}
		pass.Reportf(as.Pos(), "plain = overwrites budget accumulator %s with a raw value; the contract is += (or assigning an already-budget-typed expression)", exprString(lhs))
	}
}

// budgetResults reports, for each result position of call, whether it
// carries budget mass: the result has type Budget, the call is a
// canonical accessor with a single result, or the callee's
// BudgetResults fact lists the position. A conversion is not a call
// result and yields nil.
func budgetResults(pass *Pass, call *ast.CallExpr) []bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	results := []types.Type{pass.TypeOf(call)}
	if tuple, ok := results[0].(*types.Tuple); ok { // nil for a call without results
		results = results[:0]
		for i := 0; i < tuple.Len(); i++ {
			results = append(results, tuple.At(i).Type())
		}
	}
	var fact FuncFact
	if fn := calleeFunc(pass, call); fn != nil {
		fact, _ = pass.Facts.Func(FactKey(fn))
	}
	carry := make([]bool, len(results))
	for i, t := range results {
		carry[i] = namedTypeName(t) == "Budget" || slices.Contains(fact.BudgetResults, i) ||
			len(results) == 1 && budgetNames[calleeBase(call)]
	}
	return carry
}

// isBudgetExpr reports whether e carries budget mass: a Budget-typed
// expression, a read of a field/accessor named ErrorBudget or
// QuantBudget, or a sum of such terms.
func isBudgetExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		// A constant is a raw number even when context gives it the
		// Budget type; only zero (reset) is allowed, checked earlier.
		return false
	}
	if namedTypeName(pass.TypeOf(e)) == "Budget" {
		return true
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return budgetFieldNames[e.Sel.Name]
	case *ast.Ident:
		return budgetFieldNames[e.Name]
	case *ast.CallExpr:
		return budgetNames[calleeBase(e)]
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return isBudgetExpr(pass, e.X) || isBudgetExpr(pass, e.Y)
		}
	}
	return false
}

// isBudgetLHS reports whether lhs denotes a budget accumulator: a
// field or variable with a canonical budget name, or of type Budget.
func isBudgetLHS(pass *Pass, lhs ast.Expr) bool {
	if namedTypeName(pass.TypeOf(lhs)) == "Budget" {
		return true
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return budgetFieldNames[lhs.Sel.Name]
	case *ast.Ident:
		return budgetFieldNames[lhs.Name]
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(tv.Value)
		return v == 0
	}
	return false
}

// calleeBase returns the bare method/function name of call.
func calleeBase(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// calleeName returns a readable callee for messages.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return exprString(fun)
	}
	return "call"
}
