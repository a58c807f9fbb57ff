package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4): the
// spread contract the benchmark is held to is stated in that rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.3, 0.1, 0.2}, 0.1, 0.3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{1000, 99, 990}, // p99.9 would leave 1 beyond, p99 leaves 10
		{100000, 99.99, 99990},
		{50, 75, 38},   // p90 leaves 5, p75 leaves 12
		{15, 50, 8},    // nothing leaves 10: the median
		{20, 50, 10.5}, // p75 leaves 5
		{21, 50, 11},   // still the median, not a lower tail
		{40, 75, 30},   // p75 leaves exactly 10
		{101, 90, 91},  // p99 leaves 1, p90 leaves 10
		{10000, 99.9, 9990},
	} {
		v, p := tail(seq(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
	}
}

func TestBoundCheck(t *testing.T) {
	for _, tc := range []struct {
		base, cur, bound float64
		better           string
		want             bool
	}{
		{1.0, 1.09, 0.10, "lower", true},
		{1.0, 1.11, 0.10, "lower", false},
		{1.0, 0.5, 0.10, "lower", true}, // an improvement
		{100, 91, 0.10, "higher", true},
		{100, 89, 0.10, "higher", false},
		{100, 150, 0.10, "higher", true},
		{-2, -2.1, 0.10, "lower", true}, // shares are of |base|
	} {
		if got := withinBound(tc.base, tc.cur, tc.bound, tc.better); got != tc.want {
			t.Errorf("withinBound(%v, %v, %v, %s) = %v, want %v", tc.base, tc.cur, tc.bound, tc.better, got, tc.want)
		}
	}
}

func TestFisherExact(t *testing.T) {
	// Fisher's tea-tasting table: 3 of 4 against 1 of 4.
	if got, want := fisherP(3, 4, 1, 4), 34.0/70; math.Abs(got-want) > 1e-12 {
		t.Errorf("tea tasting p = %v, want %v", got, want)
	}
	if got := fisherP(5, 10, 5, 10); got != 1 {
		t.Errorf("identical rates p = %v, want 1", got)
	}
	if got := fisherP(0, 16, 0, 16); got != 1 {
		t.Errorf("all-failure tables p = %v, want 1", got)
	}
	if got := fisherP(0, 16, 16, 16); got > 1e-8 {
		t.Errorf("0/16 against 16/16 p = %v, want < 1e-8", got)
	}
	// Symmetric in the two groups.
	if a, b := fisherP(2, 12, 9, 20), fisherP(9, 20, 2, 12); math.Abs(a-b) > 1e-12 {
		t.Errorf("fisherP not symmetric: %v vs %v", a, b)
	}
}
