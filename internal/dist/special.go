package dist

import (
	"fmt"
	"math"
)

// lchoose returns ln C(n, k).
func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// BinomialCoeff returns C(n, k) as a float64 (0 when k is outside
// [0, n]).
func BinomialCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return math.Exp(lchoose(n, k))
}

// BinomialPMF returns Pr(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// BinomialSurvival returns Pr(X > j) for X ~ Binomial(n, p) by summing
// the upper-tail PMF (exact for the small n this package serves).
func BinomialSurvival(n, j int, p float64) float64 {
	if j < 0 {
		return 1
	}
	if j >= n {
		return 0
	}
	s := 0.0
	for i := j + 1; i <= n; i++ {
		s += BinomialPMF(n, i, p)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// PoissonPMF returns Pr(X = k) for X ~ Poisson(mu).
func PoissonPMF(mu float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mu == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(mu) - mu - lg)
}

// PoissonCDF returns Pr(X ≤ k) for X ~ Poisson(mu).
func PoissonCDF(mu float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if mu == 0 {
		return 1
	}
	// Stable forward recurrence on the PMF.
	term := math.Exp(-mu)
	sum := term
	for i := 1; i <= k; i++ {
		term *= mu / float64(i)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// MultinomialLogPMF returns the log-probability of observing counts x
// under Multinomial(Σx, probs). Categories with x_i = 0 contribute
// nothing even when probs_i = 0; a positive count on a zero-probability
// category yields −Inf.
func MultinomialLogPMF(x []int, probs []float64) float64 {
	if len(x) != len(probs) {
		panic(fmt.Sprintf("dist: MultinomialLogPMF with %d counts, %d probs", len(x), len(probs)))
	}
	n := 0
	for i, xi := range x {
		if xi < 0 {
			panic(fmt.Sprintf("dist: MultinomialLogPMF with x[%d]=%d", i, xi))
		}
		n += xi
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	out := ln
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		if probs[i] <= 0 {
			return math.Inf(-1)
		}
		lx, _ := math.Lgamma(float64(xi) + 1)
		out += float64(xi)*math.Log(probs[i]) - lx
	}
	return out
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b), via the standard continued-fraction expansion.
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("dist: RegIncBeta with a=%v b=%v", a, b))
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// regGammaQ returns the upper regularized incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a): the chi-square tail Pr(X²_{2a} > 2x).
func regGammaQ(a, x float64) float64 {
	if a <= 0 {
		panic(fmt.Sprintf("dist: regGammaQ with a=%v", a))
	}
	if x < 0 {
		return 1
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

// gammaPSeries computes P(a, x) by its power series (x < a+1).
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
	)
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < maxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQCF computes Q(a, x) by the continued fraction (x ≥ a+1),
// modified Lentz method.
func gammaQCF(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
		fpmin   = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSurvival returns Pr(X > x) for X ~ chi-square with df
// degrees of freedom.
func ChiSquareSurvival(x float64, df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("dist: ChiSquareSurvival with df=%d", df))
	}
	if x <= 0 {
		return 1
	}
	return regGammaQ(float64(df)/2, x/2)
}
