package stats

import (
	"math"
	"testing"
)

func TestWilson(t *testing.T) {
	// Textbook check: 8/10 at z=1.96 gives ≈ [0.490, 0.943].
	lo, hi, err := Wilson(8, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-0.4902) > 5e-4 || math.Abs(hi-0.9433) > 5e-4 {
		t.Fatalf("Wilson(8,10) = [%v, %v], want ≈ [0.490, 0.943]", lo, hi)
	}
	// Extremes stay inside [0,1] and keep positive width — the Wald
	// interval's failure mode.
	lo, hi, err = Wilson(0, 20, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi < 0.05 || hi > 0.3 {
		t.Fatalf("Wilson(0,20) = [%v, %v], want [0, ~0.16]", lo, hi)
	}
	lo, hi, err = Wilson(20, 20, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo < 0.7 || lo > 0.95 {
		t.Fatalf("Wilson(20,20) = [%v, %v], want [~0.84, 1]", lo, hi)
	}
	// Interval shrinks with n at fixed rate.
	lo1, hi1, _ := Wilson(50, 100, 1.96)
	lo2, hi2, _ := Wilson(500, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatalf("interval did not shrink with n: %v vs %v", hi2-lo2, hi1-lo1)
	}
	for _, bad := range [][2]int{{-1, 10}, {11, 10}, {0, 0}} {
		if _, _, err := Wilson(bad[0], bad[1], 1.96); err == nil {
			t.Fatalf("Wilson(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, _, err := Wilson(5, 10, 0); err == nil {
		t.Fatal("Wilson with z=0 accepted")
	}
}

func TestFitRMSE(t *testing.T) {
	// A perfect line has zero residual.
	fit, err := LinearFit([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if fit.RMSE > 1e-12 {
		t.Fatalf("perfect line RMSE = %v, want 0", fit.RMSE)
	}
	// A known perturbation: residuals (+1,−1,+1,−1) around y=x give
	// RMSE 1 regardless of slope estimates' details... pin numerically.
	fit, err = LinearFit([]float64{0, 1, 2, 3}, []float64{1, 0, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if fit.RMSE <= 0 || fit.RMSE > 1 {
		t.Fatalf("perturbed line RMSE = %v, want in (0, 1]", fit.RMSE)
	}
}
