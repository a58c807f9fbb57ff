package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OverflowAnalyzer guards the int64 census-counter arithmetic inside
// //nrlint:deterministic packages — exactly the class of the PR-4
// wrap bug, where two 2⁶² counts passed a post-add check after the
// sum had already wrapped negative. The repo's convention makes this
// checkable without a dedicated counter type: in core, census, sweep
// and model, int64 is used for counter-like quantities (populations,
// message budgets, census counts) and plain int for everything else,
// so the analyzer flags
//
//   - narrowing conversions from int64 (int64→int/int32/…): these
//     silently truncate on wrap; convert through internal/checked
//     (checked.Int) or prove the round trip inline with the blessed
//     `int64(int(x)) == x` guard shape;
//   - unchecked `a+b`, `a*b`, `+=`, `*=` on int64 operands: overflow
//     wraps silently; use checked.Add64 / checked.Mul64, or justify a
//     bounded site with //nrlint:allow overflow -- <bound>.
//
// Subtraction and ++ are not flagged: counters are non-negative and
// bounded by n, so the wrap risk concentrates in sums and products of
// independently large values.
var OverflowAnalyzer = &Analyzer{
	Name: "overflow",
	Doc:  "flag int64 narrowing conversions and unchecked int64 +/* outside the checked guard helpers in //nrlint:deterministic packages",
	Run:  runOverflow,
}

// narrowTargets are conversion targets that can lose int64 range or
// sign.
var narrowTargets = map[types.BasicKind]bool{
	types.Int: true, types.Int32: true, types.Int16: true, types.Int8: true,
	types.Uint: true, types.Uint64: true, types.Uint32: true, types.Uint16: true, types.Uint8: true,
}

func runOverflow(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	blessed := blessedRoundTrips(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNarrowing(pass, n, blessed)
			case *ast.BinaryExpr:
				if n.Op != token.ADD && n.Op != token.MUL {
					return true
				}
				if tv, ok := pass.Info.Types[n]; ok && tv.Value != nil {
					return true // constant-folded: checked by the compiler
				}
				if basicKind(pass.TypeOf(n.X)) == types.Int64 && basicKind(pass.TypeOf(n.Y)) == types.Int64 {
					pass.Reportf(n.Pos(), "unchecked int64 %s can wrap silently (the PR-4 bug class); use checked.%s, or justify the bound with //nrlint:allow overflow -- <reason>",
						n.Op, map[token.Token]string{token.ADD: "Add64", token.MUL: "Mul64"}[n.Op])
				}
			case *ast.AssignStmt:
				if n.Tok != token.ADD_ASSIGN && n.Tok != token.MUL_ASSIGN {
					return true
				}
				for _, lhs := range n.Lhs {
					if basicKind(pass.TypeOf(lhs)) == types.Int64 {
						pass.Reportf(n.Pos(), "unchecked int64 %s can wrap silently (the PR-4 bug class); use checked.%s, or justify the bound with //nrlint:allow overflow -- <reason>",
							n.Tok, map[token.Token]string{token.ADD_ASSIGN: "Add64", token.MUL_ASSIGN: "Mul64"}[n.Tok])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkNarrowing flags T(x) where x is int64-kinded and T loses range
// or sign, unless the conversion is part of a blessed round-trip
// guard.
func checkNarrowing(pass *Pass, call *ast.CallExpr, blessed map[*ast.CallExpr]bool) {
	if len(call.Args) != 1 || blessed[call] {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	if !narrowTargets[basicKind(tv.Type)] {
		return
	}
	if basicKind(pass.TypeOf(call.Args[0])) != types.Int64 {
		return
	}
	pass.Reportf(call.Pos(), "narrowing conversion %s(…) from int64 truncates silently on overflow; use internal/checked (checked.Int) or the round-trip guard int64(%s(x)) == x",
		typeExprString(call.Fun), typeExprString(call.Fun))
}

// blessedRoundTrips marks the inner narrowing conversions of the
// guard idiom `int64(T(x)) ==/!= x`: that conversion IS the overflow
// check, so flagging it would force guards to suppress themselves.
func blessedRoundTrips(pass *Pass) map[*ast.CallExpr]bool {
	blessed := map[*ast.CallExpr]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				outer, ok := ast.Unparen(side).(*ast.CallExpr)
				if !ok || len(outer.Args) != 1 {
					continue
				}
				tv, ok := pass.Info.Types[outer.Fun]
				if !ok || !tv.IsType() || basicKind(tv.Type) != types.Int64 {
					continue
				}
				if inner, ok := ast.Unparen(outer.Args[0]).(*ast.CallExpr); ok {
					blessed[inner] = true
				}
			}
			return true
		})
	}
	return blessed
}

func typeExprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e)
	default:
		return "T"
	}
}
