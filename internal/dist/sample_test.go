package dist

import (
	"math"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/rng"
)

// gofPValue draws `samples` variates, histograms them over [0, maxBin]
// (with the top bin absorbing the tail), and chi-square-tests against
// the expected bin probabilities.
func gofPValue(t *testing.T, samples, maxBin int, draw func() int, prob func(k int) float64) float64 {
	t.Helper()
	hist := make([]int, maxBin+1)
	for i := 0; i < samples; i++ {
		x := draw()
		if x < 0 {
			t.Fatalf("negative variate %d", x)
		}
		if x > maxBin {
			x = maxBin
		}
		hist[x]++
	}
	expected := make([]float64, maxBin+1)
	cum := 0.0
	for k := 0; k < maxBin; k++ {
		expected[k] = float64(samples) * prob(k)
		cum += prob(k)
	}
	tail := 1 - cum
	if tail < 0 { // float round-off when the tail is ≈ 0
		tail = 0
	}
	expected[maxBin] = float64(samples) * tail
	res, err := ChiSquareGoF(hist, expected, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.PValue
}

func TestSampleBinomialMatchesPMF(t *testing.T) {
	// The grid deliberately crosses the BINV/BTRS switch (n·p = 10)
	// and the p > 1/2 flip path.
	cases := []struct {
		n int
		p float64
	}{
		{20, 0.3},      // BINV
		{50, 0.02},     // BINV, tiny mean
		{1000, 0.5},    // BTRS, large mean
		{100000, 2e-4}, // BTRS via small p, mean 20
		{400, 0.1},     // BTRS, mean 40
		{30, 0.9},      // flip path into BINV
		{200, 0.95},    // flip path into BTRS
	}
	r := rng.New(12345)
	for _, c := range cases {
		mean := float64(c.n) * c.p
		sd := math.Sqrt(mean * (1 - c.p))
		maxBin := int(mean + 8*sd + 4)
		if maxBin > c.n {
			maxBin = c.n
		}
		p := gofPValue(t, 20000, maxBin,
			func() int { return SampleBinomial(r, c.n, c.p) },
			func(k int) float64 { return BinomialPMF(c.n, k, c.p) })
		if p < 1e-4 {
			t.Errorf("Binomial(%d, %v): GoF p = %v", c.n, c.p, p)
		}
	}
}

func TestSampleBinomialEdges(t *testing.T) {
	r := rng.New(1)
	if SampleBinomial(r, 0, 0.5) != 0 {
		t.Fatal("n=0 must give 0")
	}
	if SampleBinomial(r, 10, 0) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if SampleBinomial(r, 10, 1) != 10 {
		t.Fatal("p=1 must give n")
	}
	for i := 0; i < 1000; i++ {
		x := SampleBinomial(r, 7, 0.999)
		if x < 0 || x > 7 {
			t.Fatalf("out-of-support draw %d", x)
		}
	}
}

func TestSamplePoissonMatchesPMF(t *testing.T) {
	// Crosses the Knuth/PTRS switch at mu = 10.
	for _, mu := range []float64{0.3, 3, 9.5, 10.5, 30, 300} {
		r := rng.New(999)
		maxBin := int(mu + 8*math.Sqrt(mu) + 4)
		p := gofPValue(t, 20000, maxBin,
			func() int { return SamplePoisson(r, mu) },
			func(k int) float64 { return PoissonPMF(mu, k) })
		if p < 1e-4 {
			t.Errorf("Poisson(%v): GoF p = %v", mu, p)
		}
	}
}

func TestSamplePoissonEdges(t *testing.T) {
	r := rng.New(1)
	if SamplePoisson(r, 0) != 0 {
		t.Fatal("mu=0 must give 0")
	}
	// A huge mean must stay close to mu (sanity for the engine's
	// aggregate-Poisson path at n = 10⁷ scale).
	mu := 2e9
	x := float64(SamplePoisson(r, mu))
	if math.Abs(x-mu) > 10*math.Sqrt(mu) {
		t.Fatalf("Poisson(%v) drew %v", mu, x)
	}
}

func TestSampleMultinomialSumAndMarginal(t *testing.T) {
	r := rng.New(77)
	probs := []float64{0.5, 0.3, 0.2}
	out := make([]int, 3)
	const n = 100
	const draws = 20000
	hist := make([]int, n+1)
	for i := 0; i < draws; i++ {
		SampleMultinomial(r, n, probs, out)
		sum := 0
		for _, c := range out {
			if c < 0 {
				t.Fatal("negative cell")
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("cells sum to %d, want %d", sum, n)
		}
		hist[out[1]]++
	}
	// Marginal of category 1 is Binomial(n, 0.3).
	expected := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		expected[k] = draws * BinomialPMF(n, k, probs[1])
	}
	res, err := ChiSquareGoF(hist, expected, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-4 {
		t.Fatalf("multinomial marginal GoF p = %v", res.PValue)
	}
}

func TestSampleMultinomialZeroProbability(t *testing.T) {
	r := rng.New(3)
	out := make([]int, 3)
	for i := 0; i < 200; i++ {
		SampleMultinomial(r, 50, []float64{0.5, 0, 0.5}, out)
		if out[1] != 0 {
			t.Fatal("zero-probability category drawn")
		}
	}
}

func TestSampleMultisetWithoutReplacementHypergeometric(t *testing.T) {
	r := rng.New(424242)
	counts := []int32{5, 3, 2}
	const m = 4
	const draws = 30000
	hist := make([]int, 5)
	var buf []int
	for i := 0; i < draws; i++ {
		buf = SampleMultisetWithoutReplacement(r, counts, m, buf)
		sum := 0
		for j, c := range buf {
			if c < 0 || c > int(counts[j]) {
				t.Fatalf("category %d drew %d of %d", j, c, counts[j])
			}
			sum += c
		}
		if sum != m {
			t.Fatalf("sample size %d, want %d", sum, m)
		}
		hist[buf[0]]++
	}
	// Category 0's sampled count is Hypergeometric(N=10, K=5, m=4).
	expected := make([]float64, 5)
	for x := 0; x <= 4; x++ {
		expected[x] = draws * BinomialCoeff(5, x) * BinomialCoeff(5, m-x) / BinomialCoeff(10, m)
	}
	res, err := ChiSquareGoF(hist, expected, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-4 {
		t.Fatalf("hypergeometric GoF p = %v", res.PValue)
	}
}

func TestSampleHypergeometricMatchesPMF(t *testing.T) {
	cases := []struct{ N, K, m int }{
		{10, 5, 4},    // tiny
		{100, 30, 20}, // moderate
		{500, 250, 57},
		{800, 10, 400}, // sparse marks
		{60, 55, 30},   // dense marks (lo > 0)
	}
	r := rng.New(2026)
	for _, c := range cases {
		pmf := func(x int) float64 {
			return BinomialCoeff(c.K, x) * BinomialCoeff(c.N-c.K, c.m-x) / BinomialCoeff(c.N, c.m)
		}
		p := gofPValue(t, 20000, c.m,
			func() int { return SampleHypergeometric(r, c.N, c.K, c.m) },
			pmf)
		if p < 1e-4 {
			t.Errorf("Hypergeometric(%d,%d,%d): GoF p = %v", c.N, c.K, c.m, p)
		}
	}
}

func TestSampleHypergeometricEdges(t *testing.T) {
	r := rng.New(8)
	if SampleHypergeometric(r, 10, 0, 5) != 0 {
		t.Fatal("K=0 must give 0")
	}
	if SampleHypergeometric(r, 10, 10, 5) != 5 {
		t.Fatal("K=N must give m")
	}
	if SampleHypergeometric(r, 10, 4, 0) != 0 {
		t.Fatal("m=0 must give 0")
	}
	if SampleHypergeometric(r, 10, 4, 10) != 4 {
		t.Fatal("m=N must give K")
	}
	for i := 0; i < 500; i++ {
		x := SampleHypergeometric(r, 7, 5, 4)
		if x < 2 || x > 4 { // lo = max(0, 4−2) = 2
			t.Fatalf("draw %d outside support [2,4]", x)
		}
	}
}

func TestSampleMultisetWholeMultiset(t *testing.T) {
	r := rng.New(5)
	counts := []int32{2, 0, 7}
	got := SampleMultisetWithoutReplacement(r, counts, 100, nil)
	for i, c := range counts {
		if got[i] != int(c) {
			t.Fatalf("oversized sample: got[%d] = %d, want %d", i, got[i], c)
		}
	}
}

func TestAliasTableFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	tab := NewAliasTable(weights)
	if len(tab.prob) != 4 {
		t.Fatalf("K = %d", len(tab.prob))
	}
	r := rng.New(31337)
	const draws = 40000
	hist := make([]int, 4)
	for i := 0; i < draws; i++ {
		hist[tab.Sample(r)]++
	}
	expected := make([]float64, 4)
	for i, w := range weights {
		expected[i] = draws * w / 10
	}
	res, err := ChiSquareGoF(hist, expected, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-4 {
		t.Fatalf("alias GoF p = %v", res.PValue)
	}
}

func TestAliasTableZeroWeightNeverDrawn(t *testing.T) {
	tab := NewAliasTable([]float64{0.5, 0, 0.5})
	r := rng.New(6)
	for i := 0; i < 2000; i++ {
		if tab.Sample(r) == 1 {
			t.Fatal("zero-weight category drawn")
		}
	}
}

func TestAliasTableSingleCategory(t *testing.T) {
	tab := NewAliasTable([]float64{3})
	r := rng.New(7)
	for i := 0; i < 10; i++ {
		if tab.Sample(r) != 0 {
			t.Fatal("single category must always be drawn")
		}
	}
}
