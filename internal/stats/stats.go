// Package stats provides the statistics the experiment harness and
// the sweep report: a streaming mean and minimum (Welford's update),
// the Wilson score interval for success rates, and ordinary least
// squares (used to fit the Θ(log n/ε²) round complexity of experiments
// E1–E3 and the T(n) scaling sweeps).
package stats

import "math"

// Summary accumulates the mean (Welford's update) and the minimum of a
// stream of observations without retaining them. The zero value is an
// empty summary ready for use.
type Summary struct {
	n    int
	mean float64
	min  float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 || x < s.min {
		s.min = x
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
}

// Mean returns the sample mean, or NaN when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Min returns the smallest observation, or NaN when empty.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}
