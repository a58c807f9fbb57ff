// Package detcall is the analysistest fixture for the determinism
// analyzer's cross-package half: a //nrlint:deterministic package
// calling into the un-annotated helper subpackage. Positive cases are
// calls whose callees transitively reach a nondeterminism source —
// no source site in this package, caught only through the
// interprocedural taint facts. Negative cases: clean helpers, the
// sorted-keys helper, generic instantiation of a clean function path,
// same-package tainted calls (the local source is flagged instead),
// and a justified allow.
//
//nrlint:deterministic
package detcall

import (
	"github.com/gossipkit/noisyrumor/internal/analyzers/testdata/src/detcall/helper"
)

func directTaintPositive(m map[string]float64) float64 {
	return helper.SumVals(m) // want `call into nondeterministic helper\.SumVals \(ranges over a map`
}

func transitiveTaintPositive(m map[string]float64) float64 {
	return helper.Wrap(m) // want `call into nondeterministic helper\.Wrap \(calls helper\.SumVals`
}

func clockTaintPositive() int64 {
	return helper.Stamp() // want `call into nondeterministic helper\.Stamp \(reads the wall clock via time\.Now`
}

func sleepTaintPositive() {
	helper.Backoff(3) // want `call into nondeterministic helper\.Backoff \(pauses on the wall clock via time\.Sleep`
}

func genericTaintPositive(m map[string]int) []int {
	return helper.Vals(m) // want `call into nondeterministic helper\.Vals \(ranges over a map`
}

func genericExplicitTaintPositive(m map[string]float64) []float64 {
	return helper.Vals[float64](m) // want `call into nondeterministic helper\.Vals \(ranges over a map`
}

func methodTaintPositive(t *helper.Table) int {
	return t.Flatten() // want `call into nondeterministic helper\.\(Table\)\.Flatten \(ranges over a map`
}

func sortedKeysNegative(m map[string]float64) []string {
	return helper.Sorted(m) // key-collection idiom is exempt in the summary too: no finding
}

func pureNegative(x float64) float64 {
	return helper.Pure(x) // clean callee: no finding
}

func methodCleanNegative(t *helper.Table) int {
	return t.Size() // clean method on a type with a tainted sibling: no finding
}

// localTainted ranges a map in THIS package: the source site itself is
// the finding, so calls to it are not reported a second time.
func localTainted(m map[string]int) int {
	n := 0
	for _, v := range m { // want `range over map m iterates in randomized order`
		n ^= v
	}
	return n
}

func samePackageNegative(m map[string]int) int {
	return localTainted(m) // same-package call: no finding
}

func allowedNegative(m map[string]float64) float64 {
	//nrlint:allow determinism -- diagnostics-only path, result never reaches simulation state
	return helper.SumVals(m)
}
