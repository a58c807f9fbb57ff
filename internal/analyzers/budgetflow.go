package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// This file is the interprocedural half of the budget pass: the
// per-function summaries its Facts hook exports, and the def-use walk
// its Run hook applies to every function body.

// budgetFlowFacts summarizes every declared function: budget-carrying
// result positions and whether Budget-typed parameters sink. A summary
// reads its callees' facts, so a wrapper declared before the function
// it wraps needs another round: the summaries are recomputed until no
// fact changes. Between rounds results only gain positions and
// parameters only lose sinks (an unsummarized callee counts as one),
// so the loop ends.
func budgetFlowFacts(pass *Pass) error {
	type funcDecl struct {
		fd *ast.FuncDecl
		fn *types.Func
	}
	var decls []funcDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, funcDecl{fd, fn})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			key := FactKey(d.fn)
			fact, seen := pass.Facts.Func(key)
			results := budgetResultIndices(pass, d.fd, d.fn)
			hasParam, sinks := paramSinkSummary(pass, d.fd, d.fn)
			if seen && slices.Equal(results, fact.BudgetResults) &&
				hasParam == fact.HasBudgetParam && sinks == fact.SinksBudget {
				continue
			}
			fact.BudgetResults, fact.HasBudgetParam, fact.SinksBudget = results, hasParam, sinks
			pass.Facts.SetFunc(key, fact)
			changed = true
		}
	}
	return nil
}

// budgetResultIndices returns the result positions of fn that carry
// budget mass: typed Budget, the single result of a canonical
// accessor name, or positions whose return expressions are budget
// expressions in the body.
func budgetResultIndices(pass *Pass, fd *ast.FuncDecl, fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	carry := make([]bool, sig.Results().Len())
	for i := 0; i < sig.Results().Len(); i++ {
		if namedTypeName(sig.Results().At(i).Type()) == "Budget" {
			carry[i] = true
		}
	}
	if budgetNames[fn.Name()] && sig.Results().Len() == 1 {
		carry[0] = true
	}
	if fd.Body != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // nested literals return to their own scope
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != len(carry) {
				return true
			}
			for i, res := range ret.Results {
				if !carry[i] && isBudgetSourceExpr(pass, res) {
					carry[i] = true
				}
			}
			return true
		})
	}
	var out []int
	for i, c := range carry {
		if c {
			out = append(out, i)
		}
	}
	return out
}

// isBudgetSourceExpr extends isBudgetExpr through one conversion
// layer — `float64(e.ErrorBudget())` still carries the mass — and to
// single-result calls that carry budget, so wrapper results are
// summarized even when they erase the type.
func isBudgetSourceExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if isBudgetExpr(pass, e) {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && isBudgetSourceExpr(pass, call.Args[0])
	}
	carry := budgetResults(pass, call)
	return len(carry) == 1 && carry[0]
}

// paramSinkSummary reports whether fn takes Budget-typed parameters
// and, if so, whether every one of them is discharged by the body.
// Bodiless functions (externally linked, or interface-shaped decls)
// are conservatively assumed to sink.
func paramSinkSummary(pass *Pass, fd *ast.FuncDecl, fn *types.Func) (hasParam, sinks bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false, false
	}
	obligations := map[types.Object]token.Pos{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if namedTypeName(p.Type()) == "Budget" && p.Name() != "" && p.Name() != "_" {
			obligations[p] = p.Pos()
		}
	}
	if len(obligations) == 0 {
		return false, false
	}
	if fd.Body == nil {
		return true, true
	}
	undischarged := flowBudget(pass, fd.Body, obligations)
	return true, len(undischarged) == 0
}

// budgetCallObligations finds locals initialized or assigned from
// budget-carrying call results anywhere in body.
func budgetCallObligations(pass *Pass, body *ast.BlockStmt) map[types.Object]token.Pos {
	obligations := map[types.Object]token.Pos{}
	obligate := func(lhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
			return // package-level or parameter: reachable elsewhere
		}
		obligations[obj] = id.Pos()
	}
	// Result i of the j-th right-hand call lands in lhs[i+j]: either
	// one multi-value call (j = 0) or one single-value call per lhs
	// (i = 0).
	obligateCalls := func(lhs, rhs []ast.Expr) {
		for j, r := range rhs {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				for i, carry := range budgetResults(pass, call) {
					if carry && i+j < len(lhs) {
						obligate(lhs[i+j])
					}
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				obligateCalls(n.Lhs, n.Rhs)
			}
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			obligateCalls(lhs, n.Values)
		}
		return true
	})
	return obligations
}

// useKind classifies one appearance of an obligated object.
type useKind int

const (
	useNeutral  useKind = iota // comparison, blank discard: neither sinks nor transfers
	useSink                    // return, ledger, sinking call, escape
	useTransfer                // copied into another local: obligation moves
)

// flowBudget runs the def-use walk: given obligated objects (locals
// holding budget call results, or Budget-typed parameters), it
// returns the subset that never reaches a sink, mapped to their
// report positions. Transfers (`y := x`) move the obligation to the
// destination local; discharge propagates backward through transfer
// edges to fixpoint.
func flowBudget(pass *Pass, body *ast.BlockStmt, obligations map[types.Object]token.Pos) map[types.Object]token.Pos {
	if len(obligations) == 0 {
		return nil
	}
	parents := buildParents(body)

	// Discover transfer targets iteratively: a plain `y := x` (or
	// `y = x`) whose RHS mentions an obligated object makes y
	// obligated too, which can enable further transfers.
	type edge struct{ from, to types.Object }
	var edges []edge
	tracked := map[types.Object]token.Pos{}
	for obj, pos := range obligations {
		tracked[obj] = pos
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				toObj := pass.Info.ObjectOf(id)
				if toObj == nil || toObj.Pos() < body.Pos() || toObj.Pos() >= body.End() {
					continue // writing to a field/package var is a sink, handled below
				}
				// A fresh local is a transfer even when it is
				// Budget-typed (`c := b` infers Budget): the obligation
				// moves with the copy, it is not yet ledgered.
				for fromObj := range mentionedTracked(pass, rhs, tracked) {
					if fromObj == toObj {
						continue
					}
					if _, known := tracked[toObj]; !known {
						tracked[toObj] = id.Pos()
						changed = true
					}
					edges = append(edges, edge{from: fromObj, to: toObj})
				}
			}
			return true
		})
	}

	// Classify every use of every tracked object.
	sunk := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isTracked := tracked[obj]; !isTracked {
			return true
		}
		if id.Pos() == obj.Pos() {
			return true // the definition itself
		}
		if classifyUse(pass, parents, id) == useSink {
			sunk[obj] = true
		}
		return true
	})

	// Discharge propagates backward through transfers: x is sunk if
	// any local it was copied into is sunk.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if sunk[e.to] && !sunk[e.from] {
				sunk[e.from] = true
				changed = true
			}
		}
	}

	undischarged := map[types.Object]token.Pos{}
	for obj, pos := range obligations {
		if !sunk[obj] {
			undischarged[obj] = pos
		}
	}
	return undischarged
}

// mentionedTracked returns the tracked objects appearing in e.
func mentionedTracked(pass *Pass, e ast.Expr, tracked map[types.Object]token.Pos) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				if _, isTracked := tracked[obj]; isTracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// buildParents records each node's parent within body.
func buildParents(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// classifyUse walks from a use of a tracked object up the enclosing
// expression tree and decides whether the use discharges the
// obligation. Conservative in both directions by design: comparisons
// and blank discards never discharge; unknown constructs (escapes,
// stores into arbitrary structures, calls with no summary) always do,
// so only provable drops are reported.
func classifyUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) useKind {
	var child ast.Node = id
	for n := parents[child]; n != nil; child, n = n, parents[n] {
		switch n := n.(type) {
		case *ast.ParenExpr:
			continue
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
				token.LAND, token.LOR:
				return useNeutral // the mass does not travel through a bool
			}
			continue // arithmetic: the composite value carries the mass
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				return useSink // address escapes: assume reachable
			}
			continue
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				continue // conversion: the converted value still carries mass
			}
			if inCallFun(n, child) {
				return useSink // method call on the value: assume ledger-like
			}
			return classifyCallArg(pass, n)
		case *ast.ReturnStmt:
			return useSink
		case *ast.AssignStmt:
			return classifyAssignUse(pass, n, child)
		case *ast.ValueSpec:
			return useTransfer // var y = x: transfer edges handle it
		case *ast.KeyValueExpr, *ast.CompositeLit, *ast.SendStmt,
			*ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			return useSink // stored or forwarded somewhere: assume reachable
		case *ast.IncDecStmt, *ast.RangeStmt:
			return useSink
		case ast.Stmt:
			// Reached a bare statement (if/for condition fragments fall
			// out via the comparison case above): conservative.
			return useSink
		}
	}
	return useSink
}

// inCallFun reports whether child sits inside call's Fun (receiver /
// callee position) rather than its arguments.
func inCallFun(call *ast.CallExpr, child ast.Node) bool {
	return child.Pos() >= call.Fun.Pos() && child.End() <= call.Fun.End()
}

// classifyCallArg decides whether passing a tracked value to call
// discharges the obligation. Only a summarized callee whose
// Budget-typed parameters provably go nowhere refuses the discharge;
// everything else — stdlib, function values, un-analyzed packages,
// callees that take the value as a raw float — is assumed to sink.
func classifyCallArg(pass *Pass, call *ast.CallExpr) useKind {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return useSink
	}
	fact, ok := pass.Facts.Func(FactKey(fn))
	if !ok {
		return useSink
	}
	if fact.HasBudgetParam && !fact.SinksBudget {
		return useNeutral
	}
	return useSink
}

// classifyAssignUse handles a tracked value on either side of an
// assignment.
func classifyAssignUse(pass *Pass, as *ast.AssignStmt, child ast.Node) useKind {
	// Locate which position child occupies.
	for _, lhs := range as.Lhs {
		if within(lhs, child) {
			return useNeutral // overwritten / re-bound: not a discharge
		}
	}
	for i, rhs := range as.Rhs {
		if !within(rhs, child) {
			continue
		}
		if as.Tok == token.ADD_ASSIGN {
			if i < len(as.Lhs) && isBudgetLHS(pass, as.Lhs[i]) {
				return useSink // += onto an accumulator: the contract
			}
			return useSink // += onto something else still stores it
		}
		if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
			return useSink
		}
		var lhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			lhs = as.Lhs[i]
		} else if len(as.Lhs) > 0 {
			lhs = as.Lhs[0]
		}
		if lhs == nil {
			return useSink
		}
		if isBlank(lhs) {
			return useNeutral // `_ = x` does not ledger the mass
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				if _, isVar := obj.(*types.Var); isVar && obj.Pkg() != nil && obj.Parent() != obj.Pkg().Scope() {
					// Copied into another local — even a Budget-typed
					// one: the transfer edges decide whether the copy
					// is eventually ledgered.
					return useTransfer
				}
			}
		}
		if isBudgetLHS(pass, lhs) {
			return useSink // assigned into a budget accumulator/field
		}
		return useSink // stored into a field, map, slice, …: assume reachable
	}
	return useSink
}

// within reports whether child's span lies inside node's.
func within(node ast.Node, child ast.Node) bool {
	return child.Pos() >= node.Pos() && child.End() <= node.End()
}
