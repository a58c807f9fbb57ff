package census

import (
	"math"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// certExactCutoff is the largest law-level quantization certificate a
// phase accepts before bypassing the cache: when ℓ·d_TV(q, q̂)·sens
// exceeds it, the engine evaluates the law exactly at q for that phase
// instead of substituting the cached q̂-law, charging only truncation
// mass. The decision is a pure function of (q, ℓ, η, tol) — identical
// on cache hit and miss — so it never leaks cache state into results.
// 0.05 sits well above the worst certificates of threshold-straddling
// sweeps at η = 10⁻³ (a few 10⁻² only at near-tie pools with large ℓ),
// so the fallback stays rare enough to preserve quantized throughput
// while capping any single phase's budget contribution.
const certExactCutoff = 0.05

const (
	// certTailCut truncates the flip-budget ladder: once the flip tail
	// P(F > t) drops below it, larger t cannot improve the minimum.
	certTailCut = 1e-16
	// certOuterCut prunes the outer pair-sum Binomial(ℓ−1, ·) walk;
	// the pruned mass is added back conservatively (see certPair).
	certOuterCut = 1e-18
	// certMaxT bounds the flip-budget ladder {0, 1, 2, 4, 8, 16}.
	certMaxT = 6
)

// certSens bounds the single-draw pivot sensitivity of the Stage-2
// majority at the lattice point q̂: the probability that changing one
// of the ℓ subsample draws can change maj's outcome, maximized (via a
// conservative flip coupling) over every pool point q in the η-cell
// of q̂. It is a pure function of (q̂, ℓ, η) — cache-key data only —
// so memoizing it alongside the law keeps quantized runs bit-identical
// at any worker count.
//
// The chain of bounds (each conservative):
//
//  1. Hybrid argument: d_TV(maj(Mult(ℓ,q)), maj(Mult(ℓ,q̂))) ≤
//     ℓ·d_TV(q,q̂)·P(pivot), where pivot is the event that the other
//     ℓ−1 draws have top-two counts within 1 of each other (M−S ≥ 2
//     makes a single changed draw irrelevant: the argmax set is the
//     same singleton either way, ties broken by shared randomness).
//  2. Flip coupling: the other ℓ−1 draws are a q/q̂ mixture; coupling
//     each to q̂ flips it with probability ≤ ρ = kη/2 (the η-cell TV
//     radius). F ≤ t flips move M−S by ≤ 2t, so
//     P(M−S ≤ 1) ≤ P(M̂−Ŝ ≤ 1+2t under all-q̂) + P(Binom(ℓ−1,ρ) > t),
//     minimized over a small ladder of t.
//  3. Pair union bound: the all-q̂ counts sum to ℓ−1, so the top count
//     always reaches m0 = ⌈(ℓ−1)/k⌉; P(M̂−Ŝ ≤ w) ≤ Σ_{j<j'}
//     P(|Z_j − Z_{j'}| ≤ w ∧ max(Z_j, Z_{j'}) ≥ m0), each pair term
//     evaluated through the exact Binomial factoring of (Z_j + Z_{j'},
//     Z_j | sum) with recurrence-driven pmfs (the law.go idiom).
//
// The flip tail is a direct upper pmf sum (certFlipTail) — never
// 1−CDF, whose cancellation could under-count and silently break
// conservativeness. The returned sensitivity is capped at 1 (at ℓ = 1
// every draw is pivotal and the certificate degrades to the exact
// per-draw TV, which is still tight).
func certSens(qhat []float64, ell int, eta float64) float64 {
	k := len(qhat)
	np := ell - 1 // the "other draws" population of the hybrid step
	if np <= 0 {
		return 1
	}
	rho := float64(k) * eta / 2
	if rho >= 1 {
		return 1
	}
	m0 := (np + k - 1) / k // sure lower bound on the all-q̂ max count

	// Flip-budget ladder: tails first, so the pair scan below can stop
	// at the widest window that can still win the minimum.
	ladder := [certMaxT]int{0, 1, 2, 4, 8, 16}
	var ts [certMaxT]int
	var tails [certMaxT]float64
	nts := 0
	for _, t := range ladder {
		if t > np {
			break
		}
		ts[nts] = t
		tails[nts] = certFlipTail(np, t, rho)
		nts++
		if tails[nts-1] <= certTailCut {
			break
		}
	}
	wmax := 1 + 2*ts[nts-1]

	var nt [certMaxT]float64
	for j := 0; j < k; j++ {
		for jp := j + 1; jp < k; jp++ {
			p := qhat[j] + qhat[jp]
			if p <= 0 {
				continue
			}
			certPair(np, p, qhat[j]/p, m0, wmax, ts[:nts], nt[:nts])
		}
	}
	sens := 1.0
	for i := 0; i < nts; i++ {
		if s := nt[i] + tails[i]; s < sens {
			sens = s
		}
	}
	if sens < 0 {
		sens = 0
	}
	return sens
}

// certFlipTail upper-bounds P(F > t) for F ~ Binomial(np, rho) by the
// direct upper pmf sum, driven by the pmf recurrence (one transcendental
// evaluation total instead of one per term — certSens calls this per
// ladder step on every cache miss). Once the term ratio r drops below 1
// and the geometric remainder term·r/(1−r) is negligible, that remainder
// is added in full and the sum stops: the ratios only decrease past the
// mode, so the true remainder is ≤ the geometric one and the returned
// value stays ≥ the exact survival — an over-count only ever loosens
// the certificate, never the conservativeness.
func certFlipTail(np, t int, rho float64) float64 {
	if t < 0 {
		return 1
	}
	if t >= np {
		return 0
	}
	odds := rho / (1 - rho)
	term := dist.BinomialPMF(np, t+1, rho)
	s := term
	for i := t + 2; i <= np && term > 0; i++ {
		r := float64(np-i+1) / float64(i) * odds
		term *= r
		s += term
		if r < 1 {
			if rem := term * r / (1 - r); rem < certTailCut*1e-2 {
				s += rem
				break
			}
		}
	}
	if s > 1 {
		s = 1
	}
	return s
}

// certPair accumulates, into nt[i] for each flip budget ts[i], the
// pair term P(|Z_j − Z_{j'}| ≤ 1+2·ts[i] ∧ max(Z_j, Z_{j'}) ≥ m0)
// for a pair with total success probability p and conditional split
// p1 = q̂_j/p: T = Z_j + Z_{j'} ~ Binomial(np, p) and X = Z_j | T ~
// Binomial(T, p1). The outer T walk runs mode-outward on the pmf
// recurrence and prunes below certOuterCut; pruned mass is added to
// every nt[i] (the inner probability is ≤ 1), keeping the bound
// conservative. One accumulation pass over the widest window wmax
// buckets each inner term by d = |2x − T| into every budget with
// window ≥ d.
func certPair(np int, p, p1 float64, m0, wmax int, ts []int, nt []float64) {
	q := 1 - p
	var lp1, lq1 float64
	if p1 > 0 && p1 < 1 {
		lp1, lq1 = math.Log(p1), math.Log1p(-p1)
	}
	lf := lfact()
	mode := int(math.Floor(float64(np+1) * p))
	if mode > np {
		mode = np
	}
	pm := dist.BinomialPMF(np, mode, p)
	visited := 0.0
	pT := pm
	for T := mode; T >= 0 && pT >= certOuterCut; T-- {
		visited += pT
		certPairInner(lf, T, pT, p1, lp1, lq1, m0, wmax, ts, nt)
		if T > 0 {
			pT *= float64(T) / float64(np-T+1) * q / p
		}
	}
	if mode < np && q > 0 {
		pT = pm * float64(np-mode) / float64(mode+1) * p / q
		for T := mode + 1; T <= np && pT >= certOuterCut; T++ {
			visited += pT
			certPairInner(lf, T, pT, p1, lp1, lq1, m0, wmax, ts, nt)
			if T < np {
				pT *= float64(np-T) / float64(T+1) * p / q
			}
		}
	}
	if pruned := 1 - visited; pruned > 0 {
		for i := range nt {
			nt[i] += pruned
		}
	}
}

// certPairInner adds P(T)·P(X = x | T) for every x in the wmax window
// around T/2 that satisfies max(x, T−x) ≥ m0, bucketed by d = |2x − T|
// into each budget whose window 1+2·ts[i] covers d. lf is the lfact
// table, fetched once per certPair.
func certPairInner(lf []float64, T int, pT, p1, lp1, lq1 float64, m0, wmax int, ts []int, nt []float64) {
	if 2*m0-wmax > T {
		return // max(x, T−x) ≤ (T+wmax)/2 < m0 throughout the window
	}
	if p1 <= 0 || p1 >= 1 {
		// Degenerate conditional: X is 0 or T surely, so d = T.
		x := 0
		if p1 >= 1 {
			x = T
		}
		mx := x
		if T-x > mx {
			mx = T - x
		}
		if mx >= m0 && T <= wmax {
			for i, t := range ts {
				if 1+2*t >= T {
					nt[i] += pT
				}
			}
		}
		return
	}
	x0 := 0
	if a := T - wmax; a > 0 {
		x0 = (a + 1) / 2 // ⌈(T−wmax)/2⌉
	}
	x1 := (T + wmax) / 2
	if x1 > T {
		x1 = T
	}
	px := binomPMF(lf, T, x0, p1, lp1, lq1)
	for x := x0; x <= x1; x++ {
		d := 2*x - T
		if d < 0 {
			d = -d
		}
		mx := x
		if T-x > mx {
			mx = T - x
		}
		if mx >= m0 {
			contrib := pT * px
			for i, t := range ts {
				if 1+2*t >= d {
					nt[i] += contrib
				}
			}
		}
		if x < x1 {
			px *= float64(T-x) / float64(x+1) * p1 / (1 - p1)
		}
	}
}
