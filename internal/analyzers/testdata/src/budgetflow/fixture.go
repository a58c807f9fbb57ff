// Package budgetflow is the analysistest fixture for the budget
// analyzer's def-use half: budget-carrying call results captured in
// locals must reach a return, a += accumulator, or a sinking call
// before scope ends. Positive cases drop the mass (comparison-only
// callees, blank-discarded copies, type-erased wrapper results);
// negative cases discharge it (return, +=, transfer-then-drain,
// sinking callees).
package budgetflow

import (
	"github.com/gossipkit/noisyrumor/internal/analyzers/testdata/src/budgetflow/helper"
)

func droppedToComparisonPositive() {
	x := helper.Mk() // want `budget value captured in x never reaches`
	_ = helper.Mag(x)
}

func droppedWrapperPositive(e *helper.Eng) {
	z := helper.AccruedMass(e) // want `budget value captured in z never reaches`
	_ = z
}

func droppedAccessorPositive(e *helper.Eng) bool {
	d := e.ErrorBudget() // want `budget value captured in d never reaches`
	return d > 1
}

func droppedTuplePositive() int {
	n, b := helper.MkTwo() // want `budget value captured in b never reaches`
	if b != 0 {
		n++
	}
	return n
}

func droppedGenericPositive() {
	g := helper.Mk() // want `budget value captured in g never reaches`
	_ = helper.Hold(g, "tag")
}

func droppedTransferPositive() {
	a := helper.Mk() // want `budget value captured in a never reaches`
	c := a
	_ = helper.Mag(c)
}

func returnedNegative() helper.Budget {
	b := helper.Mk()
	return b
}

type tally struct {
	total float64
}

func accumulatedNegative(t *tally) {
	b := helper.Mk()
	t.total += float64(b)
}

func drainedNegative() {
	b := helper.Mk()
	helper.Drain(b)
}

func transferThenDrainNegative() {
	b := helper.Mk()
	c := b
	helper.Drain(c)
}

func wrapperDrainedNegative(e *helper.Eng) {
	z := helper.AccruedMass(e)
	helper.Drain(helper.Budget(z))
}

func storedNegative(e *helper.Eng) map[string]helper.Budget {
	out := map[string]helper.Budget{}
	b := e.ErrorBudget()
	out["mass"] = b // stored into a reachable structure: conservative sink
	return out
}

func allowedNegative() {
	//nrlint:allow budget -- warm-up draw, mass re-accrued by the measured run
	w := helper.Mk()
	_ = helper.Mag(w)
}

func discardedWrapperPositive(e *helper.Eng) {
	helper.AccruedMass(e) // want `budget-carrying result of helper\.AccruedMass is discarded`
}
