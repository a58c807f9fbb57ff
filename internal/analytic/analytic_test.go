package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

func TestGKnownValues(t *testing.T) {
	// ℓ=1: g(δ,1) = δ for δ < 1, and g(δ,1) = 1 at δ = 1.
	if got := G(0.3, 1); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("g(0.3,1) = %v", got)
	}
	// Large δ branch: g = (1/√ℓ)(1−1/ℓ)^((ℓ−1)/2).
	l := 9
	want := (1.0 / 3) * math.Pow(1-1.0/9, 4)
	if got := G(0.9, l); math.Abs(got-want) > 1e-12 {
		t.Fatalf("g(0.9,9) = %v, want %v", got, want)
	}
}

func TestGContinuousAtBreakpoint(t *testing.T) {
	// The two branches agree at δ = 1/√ℓ.
	for _, ell := range []int{2, 5, 9, 25, 100} {
		d := 1 / math.Sqrt(float64(ell))
		below := G(d*(1-1e-12), ell)
		at := G(d, ell)
		if math.Abs(below-at) > 1e-9 {
			t.Fatalf("g discontinuous at 1/√%d: %v vs %v", ell, below, at)
		}
	}
}

func TestGMonotoneInDelta(t *testing.T) {
	// Lemma 15: non-decreasing in δ.
	for _, ell := range []int{1, 3, 9, 49} {
		prev := -1.0
		for d := 0.0; d <= 1.0001; d += 0.001 {
			dd := math.Min(d, 1)
			v := G(dd, ell)
			if v < prev-1e-12 {
				t.Fatalf("g(·,%d) decreasing at δ=%v", ell, dd)
			}
			prev = v
		}
	}
}

func TestGMonotoneInEll(t *testing.T) {
	// Lemma 15: non-increasing in ℓ (for ℓ ≥ 1).
	for _, d := range []float64{0.05, 0.2, 0.5, 0.9} {
		prev := math.Inf(1)
		for ell := 1; ell <= 200; ell++ {
			v := G(d, ell)
			if v > prev+1e-12 {
				t.Fatalf("g(%v,·) increasing at ℓ=%d: %v > %v", d, ell, v, prev)
			}
			prev = v
		}
	}
}

func TestGPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { G(-0.1, 3) },
		func() { G(1.1, 3) },
		func() { G(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestProp1LowerBoundK2Form(t *testing.T) {
	// For k=2 the bound is √(2ℓ/π)·g(δ,ℓ) — no 4^(k−2) discount.
	ell := 9
	d := 0.1
	want := math.Sqrt(2*float64(ell)/math.Pi) * G(d, ell)
	if got := Prop1LowerBound(d, ell, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	// Each additional opinion divides by 4.
	if got := Prop1LowerBound(d, ell, 3); math.Abs(got-want/4) > 1e-12 {
		t.Fatalf("k=3 bound = %v, want %v", got, want/4)
	}
}

func TestMajProbsSumToOne(t *testing.T) {
	f := func(kRaw, ellRaw uint8) bool {
		k := int(kRaw%4) + 2
		ell := int(ellRaw%8) + 1
		probs := make([]float64, k)
		rem := 1.0
		for i := 0; i < k-1; i++ {
			probs[i] = rem / 2
			rem -= probs[i]
		}
		probs[k-1] = rem
		pr := MajProbs(probs, ell)
		sum := 0.0
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMajProbsK2MatchesBinomial(t *testing.T) {
	// For k=2, odd ℓ: Pr(maj=0) = Pr(X > ℓ/2) with X ~ Bin(ℓ, p0).
	p0 := 0.6
	ell := 7
	pr := MajProbs([]float64{p0, 1 - p0}, ell)
	want := dist.BinomialSurvival(ell, ell/2, p0)
	if math.Abs(pr[0]-want) > 1e-10 {
		t.Fatalf("Pr(maj=0) = %v, want %v", pr[0], want)
	}
}

func TestMajProbsUniformSymmetric(t *testing.T) {
	pr := MajProbs([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 5)
	for i := 1; i < 3; i++ {
		if math.Abs(pr[i]-pr[0]) > 1e-10 {
			t.Fatalf("uniform probs asymmetric: %v", pr)
		}
	}
}

func TestMajProbsDegenerateCategory(t *testing.T) {
	pr := MajProbs([]float64{0.7, 0.3, 0}, 5)
	if pr[2] != 0 {
		t.Fatalf("zero-probability opinion wins with prob %v", pr[2])
	}
}

func TestMajGapPositiveForPlurality(t *testing.T) {
	pr := MajProbs([]float64{0.5, 0.3, 0.2}, 9)
	if gap := pr[0] - pr[1]; gap <= 0 {
		t.Fatalf("gap = %v", gap)
	}
}

func TestMajGapSatisfiesProp1Bound(t *testing.T) {
	// The heart of E9: the exact gap must dominate the Proposition-1
	// lower bound for every δ-biased distribution we try.
	cases := []struct {
		probs []float64
		ell   int
	}{
		{[]float64{0.55, 0.45}, 5},
		{[]float64{0.55, 0.45}, 11},
		{[]float64{0.6, 0.4}, 7},
		{[]float64{0.4, 0.3, 0.3}, 9},
		{[]float64{0.35, 0.25, 0.2, 0.2}, 7},
	}
	for _, c := range cases {
		k := len(c.probs)
		// δ = gap between top and the best rival.
		delta := c.probs[0] - c.probs[1]
		bound := Prop1LowerBound(delta, c.ell, k)
		pr := MajProbs(c.probs, c.ell)
		for i := 1; i < k; i++ {
			gap := pr[0] - pr[i]
			if gap < bound-1e-12 {
				t.Fatalf("probs=%v ℓ=%d rival %d: gap %v below bound %v",
					c.probs, c.ell, i, gap, bound)
			}
		}
	}
}

func TestLemma10StrictWinLowerBoundsGap(t *testing.T) {
	cases := [][]float64{
		{0.5, 0.5},
		{0.6, 0.4},
		{0.4, 0.35, 0.25},
		{0.3, 0.3, 0.2, 0.2},
	}
	for _, probs := range cases {
		for _, ell := range []int{3, 5, 8} {
			mp := MajProbs(probs, ell)
			sw := StrictWinProbs(probs, ell)
			for i := 1; i < len(probs); i++ {
				gap := mp[0] - mp[i]
				lb := sw[0] - sw[i]
				if gap < lb-1e-10 {
					t.Fatalf("probs=%v ℓ=%d: gap %v < strict-win bound %v",
						probs, ell, gap, lb)
				}
			}
		}
	}
}

func TestStrictWinProbsSumAtMostOne(t *testing.T) {
	sw := StrictWinProbs([]float64{0.4, 0.3, 0.3}, 6)
	sum := 0.0
	for _, v := range sw {
		if v < 0 {
			t.Fatalf("negative strict-win prob: %v", sw)
		}
		sum += v
	}
	if sum > 1+1e-10 {
		t.Fatalf("strict-win probs sum to %v", sum)
	}
}

func TestLemma8IdentityHolds(t *testing.T) {
	// Survival sum equals the incomplete-beta integral for every
	// (ℓ, j, p) on a dense grid.
	for _, ell := range []int{1, 2, 5, 9, 20} {
		for j := 0; j < ell; j++ {
			for _, p := range []float64{0.05, 0.3, 0.5, 0.77, 0.95} {
				lhs, rhs := Lemma8Identity(ell, j, p)
				if math.Abs(lhs-rhs) > 1e-10 {
					t.Fatalf("Lemma 8 fails at ℓ=%d j=%d p=%v: %v vs %v",
						ell, j, p, lhs, rhs)
				}
			}
		}
	}
}

func TestLemma13BoundsSandwich(t *testing.T) {
	for r := 1; r <= 60; r++ {
		lo, hi := Lemma13Bounds(r)
		exact := dist.BinomialCoeff(2*r, r)
		if exact < lo*(1-1e-12) || exact > hi*(1+1e-12) {
			t.Fatalf("C(%d,%d) = %v outside [%v, %v]", 2*r, r, exact, lo, hi)
		}
	}
}

func TestLemma16BoundDecreasesWithTheta(t *testing.T) {
	prev := 2.0
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		b := Lemma16Bound(theta, 100, 1000)
		if b >= prev {
			t.Fatalf("bound not decreasing in θ: %v at θ=%v", b, theta)
		}
		if b <= 0 || b > 1 {
			t.Fatalf("bound %v out of range", b)
		}
		prev = b
	}
}

func TestLemma16Threshold(t *testing.T) {
	got := Lemma16Threshold(0.5, 100, 1000)
	if math.Abs(got-(-450)) > 1e-12 {
		t.Fatalf("threshold = %v, want -450", got)
	}
}

func TestAnalyticPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Prop1LowerBound(0.1, 5, 1) },
		func() { MajProbs(nil, 3) },
		func() { MajProbs([]float64{0.5, 0.5}, 0) },
		func() { MajProbs([]float64{0.5, 0.4}, 3) },
		func() { MajProbs([]float64{1.5, -0.5}, 3) },
		func() { Lemma13Bounds(0) },
		func() { Lemma16Bound(0, 1, 10) },
		func() { Lemma16Bound(1, 1, 10) },
		func() { Lemma16Bound(0.5, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
