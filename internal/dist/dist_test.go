package dist

import (
	"math"
	"testing"
)

func TestBinomialCoeffExact(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {10, 3, 120},
		{52, 5, 2598960}, {10, -1, 0}, {3, 4, 0},
	}
	for _, c := range cases {
		got := BinomialCoeff(c.n, c.k)
		if math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.37, 1} {
		sum := 0.0
		for k := 0; k <= 10; k++ {
			sum += BinomialPMF(10, k, p)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("p=%v: PMF sums to %v", p, sum)
		}
	}
}

func TestBinomialSurvivalMatchesBetaIdentity(t *testing.T) {
	// Lemma 8: Pr(X > j) = I_p(j+1, n−j).
	for _, c := range []struct {
		n, j int
		p    float64
	}{{7, 3, 0.6}, {15, 7, 0.2}, {40, 10, 0.5}} {
		s := BinomialSurvival(c.n, c.j, c.p)
		b := RegIncBeta(float64(c.j+1), float64(c.n-c.j), c.p)
		if math.Abs(s-b) > 1e-12 {
			t.Errorf("n=%d j=%d p=%v: survival %v vs beta %v", c.n, c.j, c.p, s, b)
		}
	}
	if BinomialSurvival(5, -1, 0.3) != 1 {
		t.Error("j<0 must give 1")
	}
	if BinomialSurvival(5, 5, 0.3) != 0 {
		t.Error("j≥n must give 0")
	}
}

func TestPoissonPMFAndCDFConsistent(t *testing.T) {
	for _, mu := range []float64{0.5, 4, 25} {
		sum := 0.0
		for k := 0; k <= 200; k++ {
			sum += PoissonPMF(mu, k)
			cdf := PoissonCDF(mu, k)
			if math.Abs(sum-cdf) > 1e-10 {
				t.Fatalf("mu=%v k=%d: Σpmf=%v cdf=%v", mu, k, sum, cdf)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mu=%v: mass %v", mu, sum)
		}
	}
	if PoissonCDF(3, -1) != 0 || PoissonPMF(3, -1) != 0 {
		t.Error("negative k must have zero mass")
	}
}

func TestMultinomialLogPMFMatchesBinomial(t *testing.T) {
	for x0 := 0; x0 <= 9; x0++ {
		lp := MultinomialLogPMF([]int{x0, 9 - x0}, []float64{0.3, 0.7})
		want := BinomialPMF(9, x0, 0.3)
		if math.Abs(math.Exp(lp)-want) > 1e-12 {
			t.Errorf("x0=%d: %v vs %v", x0, math.Exp(lp), want)
		}
	}
	if !math.IsInf(MultinomialLogPMF([]int{1, 0}, []float64{0, 1}), -1) {
		t.Error("positive count on zero-probability category must be −Inf")
	}
}

func TestRegIncBetaIdentities(t *testing.T) {
	// I_x(a, 1) = x^a and I_{1/2}(a, a) = 1/2.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		for _, a := range []float64{1, 2, 5} {
			if got := RegIncBeta(a, 1, x); math.Abs(got-math.Pow(x, a)) > 1e-12 {
				t.Errorf("I_%v(%v,1) = %v, want %v", x, a, got, math.Pow(x, a))
			}
		}
	}
	for _, a := range []float64{0.5, 1, 3, 10} {
		if got := RegIncBeta(a, a, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("endpoints wrong")
	}
}

func TestChiSquareSurvivalKnownQuantiles(t *testing.T) {
	// Textbook 5% critical values.
	cases := []struct {
		x  float64
		df int
	}{{3.841, 1}, {5.991, 2}, {18.307, 10}}
	for _, c := range cases {
		p := ChiSquareSurvival(c.x, c.df)
		if math.Abs(p-0.05) > 5e-4 {
			t.Errorf("df=%d x=%v: p = %v, want ≈ 0.05", c.df, c.x, p)
		}
	}
	if ChiSquareSurvival(0, 3) != 1 {
		t.Error("x=0 must give 1")
	}
}

func TestChiSquareGoFAcceptsExactFit(t *testing.T) {
	obs := []int{100, 200, 300, 400}
	exp := []float64{100, 200, 300, 400}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.999 {
		t.Fatalf("exact fit: X²=%v p=%v", res.Statistic, res.PValue)
	}
	if res.DF != 3 {
		t.Fatalf("df = %d", res.DF)
	}
}

func TestChiSquareGoFRejectsGrossMisfit(t *testing.T) {
	obs := []int{500, 100, 100, 300}
	exp := []float64{250, 250, 250, 250}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("gross misfit accepted: p=%v", res.PValue)
	}
}

func TestChiSquareGoFPoolsSmallBins(t *testing.T) {
	// Ten tiny-expectation bins must pool into few valid ones.
	obs := []int{3, 2, 1, 0, 2, 1, 3, 2, 40, 46}
	exp := []float64{2, 2, 2, 2, 2, 2, 2, 2, 42, 42}
	res, err := ChiSquareGoF(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bins >= 10 {
		t.Fatalf("no pooling happened: %d bins", res.Bins)
	}
	if res.PValue < 0.01 {
		t.Fatalf("near-exact fit rejected after pooling: p=%v", res.PValue)
	}
}

func TestChiSquareGoFErrors(t *testing.T) {
	if _, err := ChiSquareGoF([]int{1}, []float64{1, 2}, 5, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareGoF(nil, nil, 5, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ChiSquareGoF([]int{10, 10}, []float64{10, 10}, 5, 1); err == nil {
		t.Error("df=0 accepted")
	}
	if _, err := ChiSquareGoF([]int{1, 1}, []float64{1, 1}, 50, 0); err == nil {
		t.Error("unpoolable bins accepted")
	}
}

func TestChiSquareTwoSampleIdenticalHistograms(t *testing.T) {
	h := []int{50, 100, 150, 80}
	res, err := ChiSquareTwoSample(h, h, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.999 {
		t.Fatalf("identical histograms: X²=%v p=%v", res.Statistic, res.PValue)
	}
}

func TestChiSquareTwoSampleUnequalTotals(t *testing.T) {
	// Same shape, 3× the mass: must be accepted as homogeneous.
	a := []int{50, 100, 150, 80}
	b := []int{150, 300, 450, 240}
	res, err := ChiSquareTwoSample(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.999 {
		t.Fatalf("scaled histogram rejected: p=%v", res.PValue)
	}
	// Clearly different shapes must be rejected.
	c := []int{300, 100, 20, 20}
	res, err = ChiSquareTwoSample(a, c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("different shapes accepted: p=%v", res.PValue)
	}
}

func TestChiSquareTwoSampleErrors(t *testing.T) {
	if _, err := ChiSquareTwoSample([]int{1}, []int{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareTwoSample([]int{0, 0}, []int{1, 1}, 5); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := ChiSquareTwoSample([]int{-1, 2}, []int{1, 1}, 5); err == nil {
		t.Error("negative count accepted")
	}
}
