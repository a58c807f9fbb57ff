package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsWriteAnalyzer enforces the DESIGN.md §2 observability contract
// mechanically: deterministic packages may WRITE to internal/obs
// instruments (counters tick, histograms observe, tracers emit) but
// may never READ them back — a metric value flowing into simulation
// state would couple results to scrape timing, scheduling, or whatever
// else moved the instrument, reintroducing through the side door
// exactly the nondeterminism the directive forbids. The pass checks every
// selector call whose method is defined in internal/obs inside a
// //nrlint:deterministic package against the write-only method set;
// reads (Value, Snapshot, expositors, registry iteration) and
// harness-side operations (Serve, WallClock's Now) are findings.
//
// The blessed timing pattern survives by name: obs.Now(clock) and
// obs.SinceSeconds(clock, t) are package-level helpers that consume
// an injected obs.Clock without exposing instrument state, so they
// are allowed; calling .Now() directly on a concrete clock is not —
// route it through the helper so the injected-clock seam stays the
// only clock access path.
var ObsWriteAnalyzer = &Analyzer{
	Name: "obswrite",
	Doc:  "restrict internal/obs usage in //nrlint:deterministic packages to the write-only method set: instrument reads couple results to observability state",
	Run:  runObsWrite,
}

// obsWriteMethods is the write-only method set: mutations and
// registrations, never value extraction. Defined on obs instrument,
// registry and tracer types.
var obsWriteMethods = map[string]bool{
	// instrument mutation
	"Inc": true, "Add": true, "Set": true, "Observe": true,
	// tracing (an event emits state, exposes none)
	"Event": true,
	// registration / construction on registries and vec families, and
	// an instrument's shards (a new write target, no state exposed)
	"With": true, "Counter": true, "Gauge": true, "GaugeFunc": true,
	"Histogram": true, "CounterVec": true, "GaugeVec": true,
	"HistogramVec": true, "AttachCounter": true, "Shard": true,
}

// obsAllowedFuncs is the package-level allowlist: constructors (the
// values they return are only as readable as their method sets) and
// the injected-clock/sleeper helpers, which consume a Clock or
// Sleeper without exposing instrument state.
var obsAllowedFuncs = map[string]bool{
	"Now": true, "SinceSeconds": true, "Sleep": true,
	"F": true, "LogBuckets": true,
	"NewRegistry": true, "NewTracer": true,
}

func runObsWrite(pass *Pass) error {
	if !HasDeterministicDirective(pass.Files) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Package-qualified obs functions: obs.F(...), obs.Serve(...)
			if id, ok := sel.X.(*ast.Ident); ok {
				if pkgName, ok := pass.Info.ObjectOf(id).(*types.PkgName); ok {
					if isObsPkg(pkgName.Imported()) && !obsAllowedFuncs[sel.Sel.Name] {
						pass.Reportf(call.Pos(), "obs.%s in a deterministic package: only the injected-clock helpers (obs.Now, obs.SinceSeconds) and instrument constructors are permitted here; %s belongs to the harness (//nrlint:allow obswrite -- <reason> to justify)", sel.Sel.Name, sel.Sel.Name)
					}
					return true
				}
			}
			// Method calls on obs-defined receivers.
			fn := obsMethod(pass, sel)
			if fn == nil {
				return true
			}
			if obsWriteMethods[fn.Name()] {
				return true
			}
			hint := "instruments are write-only in deterministic packages: a read couples results to observability state; compute the quantity from simulation state instead, or justify with //nrlint:allow obswrite -- <reason>"
			switch fn.Name() {
			case "Now":
				hint = "read the injected clock through obs.Now(clock) so the helper seam stays the only clock access path"
			case "Sleep":
				hint = "pause through obs.Sleep(sleeper, d) so the helper seam stays the only pacing path (and a nil Sleeper stays a no-op)"
			}
			pass.Reportf(call.Pos(), "%s.%s() reads obs state in a deterministic package: %s", exprString(sel.X), fn.Name(), hint)
			return true
		})
	}
	return nil
}

// obsMethod resolves sel to a concrete method whose receiver type is
// defined in internal/obs, or nil. Interface-dispatched methods whose
// interface is obs-defined (obs.Clock, obs.Instrument) also count:
// the contract binds the capability, not the implementation.
func obsMethod(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return nil
	}
	if isObsPkg(fn.Pkg()) {
		return fn
	}
	return nil
}

// isObsPkg reports whether pkg is internal/obs (suffix-matched so the
// check survives module renames, mirroring obsWallType).
func isObsPkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/obs")
}
