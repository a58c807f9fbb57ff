// Package checked holds the blessed overflow-guard helpers that
// nrlint's overflow analyzer points to: every int64 census-counter
// sum, product or narrowing conversion in a //nrlint:deterministic
// package must either go through these, use the inline round-trip
// guard shape `int64(int(x)) == x`, or carry a justified
// //nrlint:allow overflow directive. The helpers report overflow
// instead of wrapping, which is exactly what the PR-4 bug lacked: two
// 2⁶² counts passed a post-add `total > n` check only because the sum
// had already wrapped negative.
//
// The package itself is deliberately NOT //nrlint:deterministic: it
// is the arithmetic the analyzer exempts, and annotating it would
// force the guard implementations to suppress themselves.
package checked

import "math"

// Add64 returns a+b and whether the sum stayed in int64 range.
func Add64(a, b int64) (int64, bool) {
	if (b > 0 && a > math.MaxInt64-b) || (b < 0 && a < math.MinInt64-b) {
		return 0, false
	}
	return a + b, true
}

// Mul64 returns a*b and whether the product stayed in int64 range.
func Mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// Sum64 returns the sum of xs and whether every partial sum stayed in
// int64 range.
func Sum64(xs []int64) (int64, bool) {
	total := int64(0)
	for _, x := range xs {
		var ok bool
		if total, ok = Add64(total, x); !ok {
			return 0, false
		}
	}
	return total, true
}

// Int narrows v to int, reporting whether the value survived — on
// 64-bit platforms always, on 32-bit ones only within int32 range.
func Int(v int64) (int, bool) {
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}
