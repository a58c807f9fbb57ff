// Package helper is the un-annotated half of the detcall fixture:
// none of these functions are flagged here (no //nrlint:deterministic
// directive), but their taint summaries are exported as facts, and
// calls into the tainted ones from the deterministic fixture package
// are findings no in-package check can see.
package helper

import (
	"sort"
	"time"
)

// SumVals is directly tainted: it ranges a map, so its result depends
// on iteration order whenever accumulation is order-sensitive.
func SumVals(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total/2 + v
	}
	return total
}

// Stamp is directly tainted: it reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }

// Sorted is clean: the key-collection loop is the exempt half of the
// sorted-keys idiom, and everything downstream is order-free.
func Sorted(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Wrap is transitively tainted: no source in its own body, but it
// calls SumVals.
func Wrap(m map[string]float64) float64 { return SumVals(m) + 1 }

// Vals is the generic tainted case: instantiated call edges
// (Vals[int], Vals[float64]) must resolve to this origin's summary.
func Vals[T any](m map[string]T) []T {
	var out []T
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// Pure is clean.
func Pure(x float64) float64 { return 2 * x }

// Table exercises the method fact key: (Table).Flatten is tainted.
type Table struct {
	Cells map[string]int
}

// Flatten ranges the cell map.
func (t *Table) Flatten() int {
	n := 0
	for _, v := range t.Cells {
		n ^= v
	}
	return n
}

// Size is a clean method on the same receiver.
func (t *Table) Size() int { return len(t.Cells) }

// Backoff is directly tainted: it pauses on the wall clock, gating
// its caller's results on the scheduler.
func Backoff(attempt int) {
	time.Sleep(time.Duration(attempt) * time.Millisecond)
}
