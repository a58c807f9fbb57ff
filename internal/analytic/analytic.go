// Package analytic implements the closed-form quantities of the
// paper's analysis, used by the validation experiments to compare
// measured behaviour against proved bounds:
//
//   - G, the bias-amplification kernel g(δ,ℓ) of Proposition 1 and
//     Lemma 15;
//   - Prop1LowerBound, the right-hand side of Proposition 1:
//     √(2ℓ/π)·g(δ,ℓ)/4^(k−2);
//   - MajProbs, the exact distribution of maj_ℓ(u) under a
//     multinomial sample, by enumeration; its gaps
//     Pr(maj_ℓ = m) − Pr(maj_ℓ = i) are the quantity Lemmas 9–11
//     bound;
//   - StrictWinProbs, the no-tie win probabilities of Lemma 10;
//   - Lemma13Bounds, the central-binomial-coefficient sandwich;
//   - Lemma16Bound, the trinomial Chernoff-type tail bound.
package analytic

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// G evaluates g(δ,ℓ) from Proposition 1 (the form proved monotone in
// Lemma 15):
//
//	g(δ,ℓ) = δ(1−δ²)^((ℓ−1)/2)          if δ < 1/√ℓ,
//	         (1/√ℓ)(1−1/ℓ)^((ℓ−1)/2)    if δ ≥ 1/√ℓ.
//
// Domain: δ ∈ [0,1], ℓ ≥ 1.
func G(delta float64, ell int) float64 {
	if delta < 0 || delta > 1 {
		panic(fmt.Sprintf("analytic: G with δ=%v outside [0,1]", delta))
	}
	if ell < 1 {
		panic(fmt.Sprintf("analytic: G with ℓ=%d", ell))
	}
	l := float64(ell)
	e := (l - 1) / 2
	if delta < 1/math.Sqrt(l) {
		return delta * math.Pow(1-delta*delta, e)
	}
	return (1 / math.Sqrt(l)) * math.Pow(1-1/l, e)
}

// Prop1LowerBound returns the Proposition-1 lower bound on
// Pr(maj_ℓ = m) − Pr(maj_ℓ = i) for a δ-biased opinion distribution
// over k opinions: √(2ℓ/π) · g(δ,ℓ) / 4^(k−2).
func Prop1LowerBound(delta float64, ell, k int) float64 {
	if k < 2 {
		panic(fmt.Sprintf("analytic: Prop1LowerBound with k=%d", k))
	}
	return math.Sqrt(2*float64(ell)/math.Pi) * G(delta, ell) /
		math.Exp(float64(k-2)*(2*math.Ln2))
}

// MajProbs returns, for each opinion i, the exact probability that
// maj(S) = i when S is a multinomial sample of size ell with category
// probabilities probs (ties broken uniformly at random) — the law of
// the Stage-2 update. Computed by exhaustive enumeration of the
// C(ell+k−1, k−1) compositions, so it is intended for the small ℓ of
// experiments E9 and E12.
func MajProbs(probs []float64, ell int) []float64 {
	k := len(probs)
	if k == 0 {
		panic("analytic: MajProbs with empty distribution")
	}
	if ell < 1 {
		panic(fmt.Sprintf("analytic: MajProbs with ℓ=%d", ell))
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 {
			panic("analytic: MajProbs with negative probability")
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		panic(fmt.Sprintf("analytic: MajProbs probabilities sum to %v", total))
	}
	out := make([]float64, k)
	x := make([]int, k)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == k-1 {
			x[idx] = remaining
			pr := math.Exp(dist.MultinomialLogPMF(x, probs))
			if pr > 0 {
				maxC := 0
				for _, c := range x {
					if c > maxC {
						maxC = c
					}
				}
				ties := 0
				for _, c := range x {
					if c == maxC {
						ties++
					}
				}
				share := pr / float64(ties)
				for i, c := range x {
					if c == maxC {
						out[i] += share
					}
				}
			}
			return
		}
		for c := 0; c <= remaining; c++ {
			x[idx] = c
			rec(idx+1, remaining-c)
		}
	}
	rec(0, ell)
	return out
}

// StrictWinProbs returns, for each opinion i, the probability that the
// multinomial sample count X_i strictly exceeds every other count —
// the tie-free events of Lemma 10, which lower-bound the majority gap:
// Pr(maj_ℓ = m) − Pr(maj_ℓ = i) ≥ StrictWin[m] − StrictWin[i].
func StrictWinProbs(probs []float64, ell int) []float64 {
	k := len(probs)
	out := make([]float64, k)
	x := make([]int, k)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == k-1 {
			x[idx] = remaining
			pr := math.Exp(dist.MultinomialLogPMF(x, probs))
			if pr > 0 {
				maxC, ties := -1, 0
				winner := -1
				for i, c := range x {
					switch {
					case c > maxC:
						maxC, ties, winner = c, 1, i
					case c == maxC:
						ties++
					}
				}
				if ties == 1 {
					out[winner] += pr
				}
			}
			return
		}
		for c := 0; c <= remaining; c++ {
			x[idx] = c
			rec(idx+1, remaining-c)
		}
	}
	rec(0, ell)
	return out
}

// Lemma8Identity returns both sides of Lemma 8 for given ℓ, j, p: the
// binomial survival sum Σ_{j<i≤ℓ} C(ℓ,i) p^i (1−p)^(ℓ−i) and the beta
// integral C(ℓ,j+1)(j+1)∫₀^p z^j (1−z)^(ℓ−j−1) dz, the latter
// evaluated exactly as the regularized incomplete beta I_p(j+1, ℓ−j).
func Lemma8Identity(ell, j int, p float64) (survival, betaIntegral float64) {
	survival = 0
	for i := j + 1; i <= ell; i++ {
		survival += dist.BinomialPMF(ell, i, p)
	}
	betaIntegral = dist.RegIncBeta(float64(j+1), float64(ell-j), p)
	return survival, betaIntegral
}

// Lemma13Bounds returns the central-binomial-coefficient sandwich of
// Lemma 13, with corrected exponent signs:
//
//	2^(2r)/√(πr) · e^(−1/(8r)) ≤ C(2r,r) ≤ 2^(2r)/√(πr) · e^(−1/(9r)).
//
// Erratum: the paper prints the exponents as +1/(9r) and +1/(8r),
// which is false for every r ≥ 1 (already at r = 1 the printed lower
// bound is 2.52 > C(2,1) = 2; asymptotically C(2r,r) =
// 4^r/√(πr)·(1−1/(8r)+…) lies strictly below 4^r/√(πr)). Robbins-form
// Stirling bounds give the sandwich above, which experiment E14
// verifies numerically; the √(2ℓ/π) constant of Proposition 1 is
// unaffected because (1−1/(4(ℓ−1)))·(1−1/ℓ)^(−1/2) ≥ 1 for odd ℓ ≥ 3.
func Lemma13Bounds(r int) (lo, hi float64) {
	if r < 1 {
		panic(fmt.Sprintf("analytic: Lemma13Bounds with r=%d", r))
	}
	rf := float64(r)
	base := math.Exp(2*rf*math.Ln2 - 0.5*math.Log(math.Pi*rf))
	return base * math.Exp(-1/(8*rf)), base * math.Exp(-1/(9*rf))
}

// Lemma16Bound returns the right-hand side of Lemma 16: for n i.i.d.
// {−1,0,+1} variables with E[ΣX] = mu·n,
//
//	Pr(ΣX ≤ (1−θ)·E[ΣX] − θn) ≤ exp(−θ²(E[ΣX]+n)/4).
func Lemma16Bound(theta, expectedSum float64, n int) float64 {
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("analytic: Lemma16Bound with θ=%v", theta))
	}
	if n < 1 {
		panic(fmt.Sprintf("analytic: Lemma16Bound with n=%d", n))
	}
	return math.Exp(-theta * theta * (expectedSum + float64(n)) / 4)
}

// Lemma16Threshold returns the deviation threshold of Lemma 16:
// (1−θ)·E[ΣX] − θ·n.
func Lemma16Threshold(theta, expectedSum float64, n int) float64 {
	return (1-theta)*expectedSum - theta*float64(n)
}
