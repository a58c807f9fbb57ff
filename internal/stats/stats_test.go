package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if s.Min() != 2 {
		t.Fatalf("min = %v", s.Min())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) {
		t.Fatal("empty summary should report NaN")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3)
	if s.Mean() != 3 || s.Min() != 3 {
		t.Fatal("single-element summary wrong")
	}
}

// TestSummaryMatchesDirectComputation checks the mean and minimum
// against a direct computation over random streams. testing/quick
// draws a float64 uniformly over ±MaxFloat64, which a sum overflows,
// so the property draws int16s and scales them by 1/64: mixed signs,
// repeats and fractions, and a direct sum that is exact.
func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		sum, lo := 0.0, math.Inf(1)
		for _, v := range raw {
			x := float64(v) / 64
			s.Add(x)
			sum += x
			lo = min(lo, x)
		}
		mean := sum / float64(len(raw))
		return math.Abs(s.Mean()-mean) <= 1e-9*(1+math.Abs(mean)) && s.Min() == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ~2x
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Fatalf("slope = %v", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	// y = 3 x^1.7
	x := []float64{1, 2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 * math.Pow(x[i], 1.7)
	}
	fit, err := LogLogFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1.7) > 1e-10 {
		t.Fatalf("exponent = %v, want 1.7", fit.Slope)
	}
	if math.Abs(math.Exp(fit.Intercept)-3) > 1e-9 {
		t.Fatalf("prefactor = %v, want 3", math.Exp(fit.Intercept))
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	if _, err := LogLogFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("zero x accepted")
	}
	if _, err := LogLogFit([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("negative y accepted")
	}
}
