package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread contract is stated in. It needs at least
// two values; with fewer both quartiles are the lone value (or NaN).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		// Python clamps j into [1, n-1] and then interpolates (or, at
		// the clamped ends, extrapolates) with the unclamped weight.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median:
// the run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 75}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples; the slack keeps float error in p·n from bumping an exact
// rank up by one.
func rank(p float64, n int) int {
	x := p * float64(n) / 100
	return max(1, int(math.Ceil(x-1e-9*math.Max(1, x))))
}

// tail returns the highest percentile of xs that still has at least
// ten samples beyond it, and which percentile that is. With too few
// samples for any candidate it falls back to the median (p = 50).
func tail(xs []float64) (value, p float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), 50
	}
	for _, p := range tailPercentiles {
		if r := rank(p, len(s)); len(s)-r >= 10 {
			return s[r-1], p
		}
	}
	return median(xs), 50
}

// worsening is how much cur is worse than base, as a share of base,
// for a metric where better is "lower" or "higher"; a negative value
// is an improvement.
func worsening(base, cur float64, better string) float64 {
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// withinBound reports whether cur is no worse than base by more than
// bound, the benchmark's regression rule for an end-to-end metric.
func withinBound(base, cur, bound float64, better string) bool {
	return worsening(base, cur, better) <= bound
}

// lchoose is log C(n, k).
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// fisherP is the two-sided p-value of Fisher's exact test that a
// successes of n1 trials and b successes of n2 trials share one
// success probability: the summed hypergeometric mass of every table
// with the same margins that is no more likely than the observed one.
// Being exact, it never fires more often than its level promises,
// however few the trials.
func fisherP(a, n1, b, n2 int) float64 {
	k, n := a+b, n1+n2
	lo, hi := max(0, k-n2), min(k, n1)
	logp := func(x int) float64 { return lchoose(n1, x) + lchoose(n2, k-x) - lchoose(n, k) }
	obs := logp(a)
	p := 0.0
	for x := lo; x <= hi; x++ {
		// The relative slack keeps tables tied with the observed one in.
		if lp := logp(x); lp <= obs+1e-7*math.Max(1, math.Abs(obs)) {
			p += math.Exp(lp)
		}
	}
	return math.Min(1, p)
}
