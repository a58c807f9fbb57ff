package analyzers

import (
	"path/filepath"
	"testing"
)

// TestFactKeyShapes pins the key grammar on a real loaded package:
// package functions, methods (keyed by receiver type name), and
// generic functions (keyed by origin, so instantiated call edges in
// dependents resolve to the declaration's summary). It drives the
// two-package detcall fixture DAG and reads the store the determinism
// Facts hook filled through a probe analyzer.
func TestFactKeyShapes(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	fixtureDir := filepath.Join("testdata", "src", "detcall")
	var probed *Facts
	probe := &Analyzer{Name: "probe", Facts: func(p *Pass) error { probed = p.Facts; return nil }}
	results, err := loader.RunDirs([]string{fixtureDir, filepath.Join(fixtureDir, "helper")}, []*Analyzer{DeterminismAnalyzer, probe})
	if err != nil {
		t.Fatal(err)
	}
	fixture := results[0].Pkg.Path
	pkgPath := fixture + "/helper"
	for key, wantTainted := range map[string]bool{
		pkgPath + ".SumVals":             true,
		pkgPath + ".Stamp":               true,
		pkgPath + ".Wrap":                true,
		pkgPath + ".Vals":                true, // generic: origin key, no type args
		pkgPath + ".(Table).Flatten":     true, // method: receiver in parens
		pkgPath + ".Sorted":              false,
		pkgPath + ".Pure":                false,
		pkgPath + ".(Table).Size":        false,
		fixture + ".directTaintPositive": true, // tainted across the import edge
		fixture + ".pureNegative":        false,
	} {
		fact, ok := probed.Func(key)
		if !ok {
			t.Errorf("no fact recorded under %q", key)
			continue
		}
		if fact.Tainted != wantTainted {
			t.Errorf("%q: Tainted = %v, want %v (%s)", key, fact.Tainted, wantTainted, fact.TaintReason)
		}
	}
}

// TestOtherPassesMissObsReads is the golden contrast for obswrite:
// the determinism, overflow and budget passes stay silent on
// its fixture, so the obswrite fixture proves that pass sees
// instrument reads no other pass could.
func TestOtherPassesMissObsReads(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	results, err := loader.RunDirs([]string{filepath.Join("testdata", "src", "obswrite")},
		[]*Analyzer{DeterminismAnalyzer, OverflowAnalyzer, BudgetAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range results[0].Diags {
		t.Errorf("obswrite fixture: another pass unexpectedly sees [%s]: %s", d.Analyzer, d.Message)
	}
}
