// Package helper is the cross-package half of the budgetflow fixture.
// Its function summaries — which results carry budget mass, which
// Budget-typed parameters actually sink — are exported as facts and
// consumed by the fixture package: AccruedMass returns budget as a
// raw float64 (invisible to the type-based pass), and Mag/Hold take a
// Budget but provably drop it, so passing one to them must not count
// as a discharge.
package helper

// Budget mirrors census.Budget.
type Budget float64

// Eng mirrors the census engine's accumulator + canonical accessor.
type Eng struct {
	mass float64
}

// ErrorBudget snapshots the accrued mass.
func (e *Eng) ErrorBudget() Budget { return Budget(e.mass) }

// Mk mints a budget-typed value.
func Mk() Budget { return 0.25 }

// MkTwo returns a budget in result position 1.
func MkTwo() (int, Budget) { return 3, 0.5 }

// AccruedMass is the wrapper a type-based check cannot see: the
// Budget type is erased behind raw, a call without arguments, but the
// returned value is still the engine's accrued mass. It is declared
// before raw, so its summary needs the intra-package fixpoint.
func AccruedMass(e *Eng) float64 { return e.raw() }

// raw erases the accessor's Budget type to float64.
func (e *Eng) raw() float64 { return float64(e.ErrorBudget()) }

// ledger is where Drain deposits mass.
var ledger float64

// Drain sinks its budget into the ledger: passing a value here
// discharges the caller's obligation.
func Drain(b Budget) { ledger += float64(b) }

// Mag only compares its budget: the mass goes nowhere, so a caller
// handing its last copy to Mag has dropped it.
func Mag(b Budget) bool { return b > 0.5 }

// Hold is the generic non-sinking case: instantiated call edges must
// resolve to this origin's summary.
func Hold[T any](b Budget, tag T) bool {
	_ = tag
	return b != 0
}
