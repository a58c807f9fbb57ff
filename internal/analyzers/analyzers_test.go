package analyzers

import (
	"path/filepath"
	"testing"
)

// Each analyzer's fixture package demonstrates at least one caught
// violation (`// want`) and one deliberately-allowed negative case
// (sorted keys, round-trip guards, transfers, justified allows); see
// testdata/src/<analyzer>/fixture.go.

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{DeterminismAnalyzer}, filepath.Join("testdata", "src", "determinism"))
}

func TestOverflowFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{OverflowAnalyzer}, filepath.Join("testdata", "src", "overflow"))
}

func TestBudgetFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{BudgetAnalyzer}, filepath.Join("testdata", "src", "budget"))
}

func TestRngForkFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{RngForkAnalyzer}, filepath.Join("testdata", "src", "rngfork"))
}

// The interprocedural fixtures are multi-package: the directory under
// test holds the //nrlint:deterministic (or budget-using) package and
// a helper/ subpackage WITHOUT the directive — the cross-package shape
// only the facts computed over the import DAG can see.

func TestDetCallFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{DeterminismAnalyzer}, filepath.Join("testdata", "src", "detcall"))
}

func TestBudgetFlowFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{BudgetAnalyzer}, filepath.Join("testdata", "src", "budgetflow"))
}

func TestObsWriteFixture(t *testing.T) {
	RunFixture(t, []*Analyzer{ObsWriteAnalyzer}, filepath.Join("testdata", "src", "obswrite"))
}

func TestSuiteRegistry(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() = %d analyzers, want 5", len(all))
	}
	for _, name := range []string{"budget", "determinism", "obswrite", "overflow", "rngfork"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestUnannotatedPackageIsExempt pins the opt-in rule: the
// determinism/overflow/rngfork passes keep quiet on packages without
// the //nrlint:deterministic directive (the budget pass is the
// repo-wide exception, exercised by its fixture).
func TestUnannotatedPackageIsExempt(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	results, err := loader.RunDirs([]string{filepath.Join("testdata", "src", "unannotated")},
		[]*Analyzer{DeterminismAnalyzer, OverflowAnalyzer, RngForkAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if diags := results[0].Diags; len(diags) != 0 {
		t.Fatalf("unannotated package got %d diagnostics, want 0: %v", len(diags), diags)
	}
}
