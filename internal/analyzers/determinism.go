package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeterminismAnalyzer enforces the repo's bit-identical-results
// contract inside //nrlint:deterministic packages (core, census,
// sweep, model): results must be a pure function of (spec, seed),
// identical at any -workers count. It flags the ways scheduler or
// runtime nondeterminism historically leaks into such code:
//
//  1. ranging over a map — iteration order is randomized, so any
//     output, accumulation or rng fork keyed by it diverges run to
//     run;
//  2. importing math/rand (global, seed-shared state; the repo's
//     streams come from internal/rng and fork deterministically);
//  3. calling time.Now / time.Since / time.Sleep on result paths —
//     wall-clock values must never reach results, and wall-clock
//     pauses gate result production on the scheduler (harness timing
//     and pacing live outside deterministic packages; retry backoff
//     waits through an injected obs.Sleeper);
//  4. goroutine fan-in that appends to a shared slice — completion
//     order decides element order; workers must write index-keyed
//     slots instead;
//  5. constructing obs.WallClock or obs.WallSleeper — the two
//     internal/obs types that touch the wall clock. Deterministic
//     packages may hold and use an injected obs.Clock or obs.Sleeper
//     (timing through obs.Now/obs.SinceSeconds and pacing through
//     obs.Sleep are the blessed patterns, write-only by the
//     DESIGN.md §2 contract), but choosing the wall implementations
//     is the harness's call, made outside these packages;
//  6. calling into a function of a package NOT bound by the directive
//     whose body transitively reaches one of these sources — the
//     helper-ranges-a-map escape hatch an in-package check cannot
//     see. The Facts hook computes a nondeterminism-taint summary for
//     every function of every analyzed package, bottom-up over the
//     import DAG: tainted iff the body holds a source (detSource) or
//     calls a tainted function. Tainted callees inside deterministic
//     packages are not re-reported: their source site is flagged
//     itself, and the fix belongs there.
//
// Unknown callees (interface dispatch, function values, stdlib
// functions other than the explicit sources) are assumed clean, so
// facts only make the check stricter where a body was analyzed. The
// injected-clock pattern stays permitted by construction: obs.Now and
// obs.SinceSeconds read the clock through an interface, which taint
// does not cross.
//
// Floating-point accumulation order is NOT checked here: the repo's
// parallel merges are already index-keyed, and a sound check needs
// value-flow analysis. Suppress legitimately order-free sites with
// `//nrlint:allow determinism -- <why order cannot reach output>`.
var DeterminismAnalyzer = &Analyzer{
	Name:  "determinism",
	Doc:   "flag map-range iteration, global math/rand, wall-clock reads and append fan-in in //nrlint:deterministic packages, and calls into helpers that transitively reach them (interprocedural taint via facts)",
	Run:   runDeterminism,
	Facts: determinismFacts,
}

func runDeterminism(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "deterministic package imports %s: global rand state is seed-shared across the process; draw from an internal/rng stream forked for this scope instead", imp.Path.Value)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			detSource(pass, n, func(at ast.Node, _, msg string) {
				if msg != "" {
					pass.Reportf(at.Pos(), "%s", msg)
				}
			})
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() == pass.Pkg {
				return true
			}
			if fact, _ := pass.Facts.Func(FactKey(callee)); fact.Tainted && !fact.Deterministic {
				pass.Reportf(call.Pos(), "call into nondeterministic %s (%s): the callee's package is not //nrlint:deterministic, so this taint is invisible to the in-package determinism pass; fix the helper, move the call to the harness, or justify with //nrlint:allow determinism -- <reason>",
					calleeLabel(callee), fact.TaintReason)
			}
			return true
		})
	}
	return nil
}

// detSource calls found once for each nondeterminism source that n
// is (a goroutine may append to several shared slices), with the
// phrase the taint summary records and the finding Run reports in a
// deterministic package. A math/rand call has no finding of its own:
// its import already is one.
func detSource(pass *Pass, n ast.Node, found func(at ast.Node, reason, msg string)) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if isMapType(pass.TypeOf(n.X)) && !isKeyCollectionLoop(pass, n) {
			found(n, "ranges over a map", fmt.Sprintf("range over map %s iterates in randomized order inside a deterministic package; iterate a sorted key slice, or justify with //nrlint:allow determinism -- <reason>", exprString(n.X)))
		}
	case *ast.CallExpr:
		fn := calleeFunc(pass, n)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		switch path := fn.Pkg().Path(); {
		case path == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
			found(n, "reads the wall clock via time."+fn.Name(), fmt.Sprintf("time.%s in a deterministic package: wall-clock values must not reach results; accept an injected obs.Clock and read it via obs.Now / obs.SinceSeconds, leaving obs.WallClock to the harness", fn.Name()))
		case path == "time" && fn.Name() == "Sleep":
			found(n, "pauses on the wall clock via time.Sleep", "time.Sleep in a deterministic package: wall-clock pauses gate results on the scheduler; accept an injected obs.Sleeper and wait via obs.Sleep, leaving obs.WallSleeper to the harness")
		case path == "math/rand" || path == "math/rand/v2":
			found(n, "draws from global "+path+" state", "")
		}
	case *ast.CompositeLit:
		if name := obsWallType(pass.TypeOf(n)); name != "" {
			iface := map[string]string{"WallClock": "Clock", "WallSleeper": "Sleeper"}[name]
			found(n, "constructs obs."+name, fmt.Sprintf("obs.%s constructed in a deterministic package: the wall implementation is the harness's choice; accept an injected obs.%s instead", name, iface))
		}
	case *ast.GoStmt:
		lit, ok := n.Call.Fun.(*ast.FuncLit)
		if !ok {
			return
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok {
				for _, name := range sharedAppends(pass, as, lit) {
					found(as, "appends to a shared slice from a goroutine", fmt.Sprintf("goroutine appends to shared slice %s: element order depends on scheduling; write each worker's result to an index-keyed slot", name))
				}
			}
			return true
		})
	}
}

// sharedAppends returns the names x of each `x = append(x, ...)` in as
// whose x is declared outside the goroutine literal lit: the classic
// fan-in whose element order depends on goroutine completion order.
func sharedAppends(pass *Pass, as *ast.AssignStmt, lit *ast.FuncLit) []string {
	var out []string
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.ObjectOf(id)
		if obj != nil && obj.Pos() != 0 && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			out = append(out, id.Name)
		}
	}
	return out
}

// determinismFacts computes and exports the taint summary of every
// function declared in the package. Intra-package call edges are
// resolved by fixpoint iteration; cross-package edges read the facts
// of already-analyzed dependencies.
func determinismFacts(pass *Pass) error {
	det := HasDeterministicDirective(pass.Files)
	type funcInfo struct {
		obj     *types.Func
		reason  string        // non-empty iff tainted
		callees []*types.Func // statically known, deduplicated, in source order
	}
	var infos []*funcInfo
	byObj := map[*types.Func]*funcInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{obj: fn}
			seen := map[*types.Func]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				detSource(pass, n, func(at ast.Node, reason, _ string) {
					if info.reason == "" {
						p := pass.Fset.Position(at.Pos())
						info.reason = fmt.Sprintf("%s at %s:%d", reason, filepath.Base(p.Filename), p.Line)
					}
				})
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(pass, call); callee != nil && !seen[callee] {
						seen[callee] = true
						info.callees = append(info.callees, callee)
					}
				}
				return true
			})
			// A source in the body outranks a tainted cross-package callee.
			for _, callee := range info.callees {
				if info.reason != "" {
					break
				}
				if fact, _ := pass.Facts.Func(FactKey(callee)); callee.Pkg() != pass.Pkg && fact.Tainted {
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), fact.TaintReason)
				}
			}
			infos = append(infos, info)
			byObj[fn] = info
		}
	}
	// Intra-package fixpoint: propagate taint along local call edges
	// until stable (recursion-safe; each iteration taints at least one
	// more function or stops).
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.reason != "" {
				continue
			}
			for _, callee := range info.callees {
				if c, ok := byObj[callee]; ok && c.reason != "" {
					info.reason = fmt.Sprintf("calls %s, which %s", calleeLabel(callee), c.reason)
					changed = true
					break
				}
			}
		}
	}
	for _, info := range infos {
		key := FactKey(info.obj)
		fact, _ := pass.Facts.Func(key)
		fact.Tainted = info.reason != ""
		fact.TaintReason = info.reason
		fact.Deterministic = det
		pass.Facts.SetFunc(key, fact)
	}
	return nil
}

// isKeyCollectionLoop recognizes the first half of the sorted-keys
// idiom — `for k := range m { keys = append(keys, k) }` — whose order
// sensitivity is resolved by the sort that idiomatically follows.
// Flagging it would make the recommended fix suppress itself; the
// key slice's use sites remain subject to every other check.
func isKeyCollectionLoop(pass *Pass, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(pass, call) || len(call.Args) != 2 {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && pass.Info.ObjectOf(arg) == pass.Info.ObjectOf(key)
}

// obsWallType returns "WallClock" or "WallSleeper" when t is one of
// internal/obs's two wall-touching implementations — recognized by
// name and defining package so the check survives vendoring or module
// renames — and "" otherwise.
func obsWallType(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return ""
	}
	switch obj.Name() {
	case "WallClock", "WallSleeper":
		return obj.Name()
	}
	return ""
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeLabel names a function for diagnostics: pkg.F or
// pkg.(T).Method, with the package's base name for brevity.
func calleeLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := namedTypeName(sig.Recv().Type()); recv != "" {
			name = "(" + recv + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "expression"
	}
}
