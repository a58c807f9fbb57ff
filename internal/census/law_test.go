package census

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/analytic"
	"github.com/gossipkit/noisyrumor/internal/dist"
)

// TestMajorityLawMatchesEnumeration pins the truncated summation
// against analytic.MajProbs, the exhaustive enumeration over all
// C(ℓ+k−1, k−1) received-count profiles — including even ℓ, where the
// u.a.r. tie-break carries real mass.
func TestMajorityLawMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct {
		q   []float64
		ell int
	}{
		{[]float64{0.5, 0.3, 0.2}, 5},
		{[]float64{0.5, 0.3, 0.2}, 9},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 7},
		{[]float64{0.7, 0.3}, 11},
		{[]float64{0.4, 0.35, 0.25}, 16}, // even ℓ: top-two ties matter
		{[]float64{1, 0, 0}, 5},
		{[]float64{0.34, 0.33, 0.33}, 12},
		{[]float64{0.9, 0.04, 0.03, 0.02, 0.01}, 9},
	} {
		want := analytic.MajProbs(tc.q, tc.ell)
		got, dropped := MajorityLaw(tc.q, tc.ell, 1e-13)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-10+dropped {
				t.Errorf("q=%v ℓ=%d: r[%d]=%.12f want %.12f (dropped %.3g)",
					tc.q, tc.ell, j, got[j], want[j], dropped)
			}
		}
	}
}

// TestMajorityLawBinomialIdentity: for k=2 and odd ℓ there are no
// ties, so the majority law is a plain binomial survival — checked at
// an ℓ far beyond enumeration range.
func TestMajorityLawBinomialIdentity(t *testing.T) {
	q := []float64{0.55, 0.45}
	ell := 665
	r, dropped := MajorityLaw(q, ell, 1e-13)
	want := dist.BinomialSurvival(ell, ell/2, q[0])
	if math.Abs(r[0]-want) > 1e-9+dropped {
		t.Fatalf("r[0]=%.12f want %.12f (dropped %.3g)", r[0], want, dropped)
	}
	if math.Abs(r[0]+r[1]-1) > 1e-9+dropped {
		t.Fatalf("k=2 law does not sum to 1: %v", r)
	}
}

// exactBinaryPrec is the math/big precision of the exact k = 2 oracle:
// its row takes three roundings per entry, so at ℓ = 4001 the oracle's
// own error stays below 2⁻²⁸⁰ relative.
const exactBinaryPrec = 300

// exactBinomialRow returns Pr(Binomial(n, p) = a) for a = 0…n at prec
// bits: (1−p)^n, then the two-term recurrence
// pmf(a+1) = pmf(a)·(n−a)/(a+1)·p/(1−p); p = 1 is the unit row at n.
func exactBinomialRow(p *big.Float, n int, prec uint) []*big.Float {
	nf := func() *big.Float { return new(big.Float).SetPrec(prec) }
	row := make([]*big.Float, n+1)
	p1 := nf().Sub(nf().SetInt64(1), p)
	if p1.Sign() == 0 {
		for a := range row {
			row[a] = nf()
		}
		row[n].SetInt64(1)
		return row
	}
	odds := nf().Quo(p, p1)
	row[0] = nf().SetInt64(1)
	for range n {
		row[0].Mul(row[0], p1)
	}
	for a := 0; a < n; a++ {
		v := nf().Mul(row[a], nf().SetInt64(int64(n-a)))
		v.Quo(v, nf().SetInt64(int64(a+1)))
		row[a+1] = v.Mul(v, odds)
	}
	return row
}

// exactBinaryRow returns Pr(Binomial(ℓ, p) = m) for m = 0…ℓ at
// exactBinaryPrec bits, p = q₀/(q₀+q₁) taken exactly from the float
// inputs.
func exactBinaryRow(q0, q1 float64, ell int) []*big.Float {
	nf := func() *big.Float { return new(big.Float).SetPrec(exactBinaryPrec) }
	p := nf().Quo(nf().SetFloat64(q0), nf().Add(nf().SetFloat64(q0), nf().SetFloat64(q1)))
	return exactBinomialRow(p, ell, exactBinaryPrec)
}

// TestBinaryLawMatchesExactTail holds the k = 2 law to an exact
// evaluation of the same row in math/big, ℓ up to 4001 and every fuzz
// tolerance. The oracle classifies each entry by its float64 value as
// the law does: zero is no mass, below mCut is dropped (once, a tie
// included), and otherwise opinion 0 wins (2m > ℓ), opinion 1 wins
// (2m < ℓ) or the two tie u.a.r. (2m = ℓ). Each pool sums to 1 exactly
// (q₁ = 1 − p rounded, q₀ = 1 − q₁ without rounding), so the row does
// not depend on how the law normalises q; with q₁ = 1 − 10⁻⁶ rounded and
// q₀ = 10⁻⁶, a per-winner row Binomial(ℓ, q₁) would be off by 6·10⁻¹¹
// in each factor 1 − q₁. The law reads at most 3·10⁻¹⁵ in r and
// 6.2·10⁻¹⁵ relative in dropped from the oracle. The bounds, 10⁻¹² in
// both, fail the per-winner evaluation the one-row walk replaced
// (2.1·10⁻¹² and 4.1·10⁻¹² at ℓ = 4001) and a walk started from
// binomPMF instead of binomSaddle (4.6·10⁻¹² at ℓ = 4001, p = 0.3).
func TestBinaryLawMatchesExactTail(t *testing.T) {
	for _, ell := range []int{11, 16, 33, 87, 259, 665, 2001, 4001} {
		for _, p := range []float64{1e-6, 0.3, 0.48, 0.5, 0.5001, 0.52, 0.55, 0.9, 0.999} {
			q1 := 1 - p
			q := []float64{1 - q1, q1}
			row := exactBinaryRow(q[0], q[1], ell)
			for _, tol := range lawFuzzTols {
				mCut := tol / (4 * float64(ell+1))
				var win [2]big.Float
				var dropped big.Float
				for m, v := range row {
					switch f, _ := v.Float64(); {
					case f == 0:
					case f < mCut:
						dropped.Add(&dropped, v)
					case 2*m > ell:
						win[0].Add(&win[0], v)
					case 2*m < ell:
						win[1].Add(&win[1], v)
					default:
						half := new(big.Float).Quo(v, big.NewFloat(2))
						win[0].Add(&win[0], half)
						win[1].Add(&win[1], half)
					}
				}
				r, gd := MajorityLaw(q, ell, tol)
				for j := range r {
					if want, _ := win[j].Float64(); math.Abs(r[j]-want) > 1e-12 {
						t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %.17g, exact %.17g (off %.3g)", q, ell, tol, j, r[j], want, r[j]-want)
					}
				}
				if want, _ := dropped.Float64(); math.Abs(gd-want) > 1e-12*want {
					t.Errorf("q=%v ℓ=%d tol=%g: dropped = %.17g, exact %.17g (off %.3g relative)", q, ell, tol, gd, want, (gd-want)/want)
				}
			}
		}
	}
}

// exactTernaryPrec is the math/big precision of the exact k = 3
// oracle: a lattice point's mass takes at most 8ℓ + 2 roundings and an
// opinion's sum fewer than ℓ² more, so at ℓ = 665 the oracle's own
// error stays below 2⁻¹⁸⁰ relative.
const exactTernaryPrec = 200

// exactTernaryLaw returns r[j] = Pr(maj(Y) = j), Y ~ Multinomial(ℓ, q/Σq)
// with ties broken u.a.r., at exactTernaryPrec bits: it enumerates every
// point (y₀, y₁, y₂) of the trinomial lattice, its mass
// Pr(Y₀ = y₀)·Pr(Y₁ = y₁ | Y₀ = y₀) from q taken exactly from the floats,
// and splits the mass evenly among the opinions holding the most balls.
func exactTernaryLaw(q []float64, ell int) []big.Float {
	nf := func() *big.Float { return new(big.Float).SetPrec(exactTernaryPrec) }
	var qb [3]*big.Float
	for j, v := range q {
		qb[j] = nf().SetFloat64(v)
	}
	p0 := nf().Quo(qb[0], nf().Add(qb[0], nf().Add(qb[1], qb[2])))
	p1 := nf()
	if rest := nf().Add(qb[1], qb[2]); rest.Sign() > 0 {
		p1.Quo(qb[1], rest)
	}
	row0 := exactBinomialRow(p0, ell, exactTernaryPrec)
	win := make([]big.Float, 3)
	for j := range win {
		win[j].SetPrec(exactTernaryPrec)
	}
	mass := nf()
	for y0 := 0; y0 <= ell; y0++ {
		if row0[y0].Sign() == 0 {
			continue
		}
		rest := ell - y0
		for y1, v := range exactBinomialRow(p1, rest, exactTernaryPrec) {
			y := [3]int{y0, y1, rest - y1}
			top := max(y[0], y[1], y[2])
			ties := 0
			for _, c := range y {
				if c == top {
					ties++
				}
			}
			mass.Mul(row0[y0], v)
			if ties > 1 {
				mass.Quo(mass, nf().SetInt64(int64(ties)))
			}
			for j, c := range y {
				if c == top {
					win[j].Add(&win[j], mass)
				}
			}
		}
	}
	return win
}

// ternaryExactPools are the k = 3 pools of TestTernaryLawMatchesExact:
// uniform, a near-tie, skewed, near-consensus and its reverse, a zero
// opinion first, and a 10⁻⁶ opinion last.
var ternaryExactPools = [][]float64{
	{1.0 / 3, 1.0 / 3, 1.0 / 3},
	{0.36, 0.33, 0.31},
	{0.5, 0.3, 0.2},
	{0.8, 0.15, 0.05},
	{0.05, 0.15, 0.8},
	{0, 0.55, 0.45},
	{0.6, 0.4 - 1e-6, 1e-6},
}

// ternaryExactEps bounds how far the k = 3 law may read above the exact
// law per opinion, and how far its summed shortfall may pass its
// dropped mass. The walk reads at most 4.4·10⁻¹⁵ and 7.7·10⁻¹⁵; the
// per-count pass it replaced read 1.96·10⁻¹³ (ℓ = 307) and 2.77·10⁻¹³
// (ℓ = 443), its binomPMF terms carrying ulp(ln ℓ!), and so does a walk
// anchored with binomPMF instead of binomSaddle.
const ternaryExactEps = 1e-14

// TestTernaryLawMatchesExact holds the k = 3 law to claim 1 — exact up
// to the truncation mass it accounts for — against exactTernaryLaw, at
// every fuzz tolerance: no r[j] exceeds the exact value by more than
// ternaryExactEps, the shortfall Σ(exact − r) stays within dropped +
// ternaryExactEps, and 0 ≤ dropped ≤ tol. Truncation only ever removes
// mass, so the law may read low by what it charges, never high.
func TestTernaryLawMatchesExact(t *testing.T) {
	type shape struct {
		q   []float64
		ell int
	}
	var shapes []shape
	for _, q := range ternaryExactPools {
		for _, ell := range []int{1, 2, 9, 16, 57, 81, 307} {
			shapes = append(shapes, shape{q, ell})
		}
	}
	for _, ell := range []int{443, 665} {
		shapes = append(shapes, shape{ternaryExactPools[1], ell})
	}
	worstOver, worstShort := math.Inf(-1), math.Inf(-1)
	for _, s := range shapes {
		exact := exactTernaryLaw(s.q, s.ell)
		for _, tol := range lawFuzzTols {
			r, dropped := MajorityLaw(s.q, s.ell, tol)
			if !(dropped >= 0 && dropped <= tol) {
				t.Errorf("q=%v ℓ=%d tol=%g: dropped %v outside [0, tol]", s.q, s.ell, tol, dropped)
			}
			var short big.Float
			short.SetPrec(exactTernaryPrec)
			for j := range r {
				var d big.Float
				d.SetPrec(exactTernaryPrec).Sub(new(big.Float).SetFloat64(r[j]), &exact[j])
				over, _ := d.Float64()
				worstOver = max(worstOver, over)
				if over > ternaryExactEps {
					e, _ := exact[j].Float64()
					t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %.17g, %.3g above the exact %.17g", s.q, s.ell, tol, j, r[j], over, e)
				}
				short.Sub(&short, &d)
			}
			sh, _ := short.Float64()
			worstShort = max(worstShort, sh-dropped)
			if sh > dropped+ternaryExactEps {
				t.Errorf("q=%v ℓ=%d tol=%g: Σ(exact − r) = %.3g exceeds dropped %.3g", s.q, s.ell, tol, sh, dropped)
			}
		}
	}
	t.Logf("largest r − exact %.3g; largest Σ(exact − r) − dropped %.3g", worstOver, worstShort)
}

// TestMajorityLawTruncationConservative is the truncation-bound
// contract: whatever mass the summation fails to place on some winner
// must be covered by the reported dropped estimate — Σr + dropped ≥ 1
// up to float slop — across tolerances loose enough to make the
// windows bite visibly.
func TestMajorityLawTruncationConservative(t *testing.T) {
	for _, tol := range []float64{1e-13, 1e-9, 1e-6, 1e-3} {
		for _, tc := range []struct {
			q   []float64
			ell int
		}{
			{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 81},
			{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 665},
			{[]float64{0.97, 0.0075, 0.0075, 0.0075, 0.0075}, 665},
			{[]float64{0.5, 0.3, 0.2}, 33},
		} {
			r, dropped := MajorityLaw(tc.q, tc.ell, tol)
			sum := 0.0
			for j, v := range r {
				if v < 0 || v > 1+1e-12 {
					t.Fatalf("tol=%g q=%v ℓ=%d: r[%d]=%v out of range", tol, tc.q, tc.ell, j, v)
				}
				sum += v
			}
			if gap := 1 - sum; gap > dropped+1e-11 {
				t.Errorf("tol=%g q=%v ℓ=%d: unaccounted mass %.3g exceeds dropped estimate %.3g",
					tol, tc.q, tc.ell, gap, dropped)
			}
			// The estimate must also stay honest: loosening by orders
			// of magnitude may not explode past the requested budget
			// by more than the documented constants allow.
			if dropped > tol {
				t.Errorf("tol=%g q=%v ℓ=%d: dropped %.3g exceeds the tolerance target", tol, tc.q, tc.ell, dropped)
			}
		}
	}
}

// censusPools are the k ≥ 4 pool shapes of the census-scale law tests:
// skewed (q₀ = 0.7, the rest equal, whose winning counts all lie
// above the rivals' windows), near-consensus (q₀ = 0.97), a near-tie
// (weights 1 + 0.02(k−j)) and uniform.
func censusPools(k int) [][]float64 {
	spread := func(q0 float64) []float64 {
		q := make([]float64, k)
		q[0] = q0
		for j := 1; j < k; j++ {
			q[j] = (1 - q0) / float64(k-1)
		}
		return q
	}
	near := make([]float64, k)
	sum := 0.0
	for j := range near {
		near[j] = 1 + 0.02*float64(k-j)
		sum += near[j]
	}
	for j := range near {
		near[j] /= sum
	}
	return [][]float64{spread(0.7), spread(0.97), near, spread(1 / float64(k))}
}

// TestPoissonLawMatchesDPAtCensusScale holds the k ≥ 4 path to the
// rival DP at the subsample sizes a census sweep reaches (ℓ′ = 443
// carries most of grid-k35-exact's law time; FuzzMajorityLaw's decoder
// stops at ℓ = 128): |r − r_DP|₁ ≤ dropped + dropped_DP + 10⁻¹² and
// 0 ≤ dropped ≤ tol at every fuzz tolerance.
func TestPoissonLawMatchesDPAtCensusScale(t *testing.T) {
	for _, k := range []int{4, 5, 8} {
		for _, ell := range []int{443, 665} {
			for _, q := range censusPools(k) {
				for _, tol := range lawFuzzTols {
					got, gd := MajorityLaw(q, ell, tol)
					dr, dd := dpLaw(q, ell, tol)
					checkWithinDP(t, q, ell, tol, got, gd, dr, dd)
				}
			}
		}
	}
}

// TestPoissonLawNormalised pins the saddle-point normaliser and row
// centres: at large ℓ, Σr may exceed 1 by no more than 10⁻¹³, and
// Σr + dropped covers 1 to within 10⁻¹³. The plain log-space pmf
// −λ + x ln λ − ln x! loses the first at ℓ = 665 and 3000 (Σr − 1 up to
// 7·10⁻¹³ and 8·10⁻¹²).
func TestPoissonLawNormalised(t *testing.T) {
	for _, k := range []int{4, 5, 8} {
		for _, ell := range []int{443, 665, 3000} {
			for _, q := range censusPools(k) {
				r, dropped := MajorityLaw(q, ell, DefaultTolerance)
				sum := 0.0
				for _, v := range r {
					sum += v
				}
				if sum > 1+1e-13 || sum+dropped < 1-1e-13 {
					t.Errorf("q=%v ℓ=%d: Σr − 1 = %.3g, dropped %.3g", q, ell, sum-1, dropped)
				}
			}
		}
	}
}

// TestPoissonLawBeyondLnGammaTable evaluates k = 4 at ℓ = lfactSize+1,
// where binomPMF defers to dist.BinomialPMF and stirlerr runs on its
// series alone. The rival DP takes seconds there and its plain
// log-space binomial terms drift by ~10⁻¹¹, so the law is held to its
// own contract instead, and to the k = 2 law of the same pool padded
// with two zero opinions — a near-tie whose rival row reaches every
// winning count — within 10⁻¹⁰, that law's beyond-table drift.
func TestPoissonLawBeyondLnGammaTable(t *testing.T) {
	ell := lfactSize + 1
	for _, q := range [][]float64{{0.7, 0.1, 0.1, 0.1}, {0.505, 0.495, 0, 0}} {
		r, dropped := MajorityLaw(q, ell, DefaultTolerance)
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		if sum > 1+1e-13 || sum+dropped < 1-1e-13 || dropped > DefaultTolerance {
			t.Errorf("q=%v ℓ=%d: Σr − 1 = %.3g, dropped %.3g", q, ell, sum-1, dropped)
		}
		if q[2] != 0 {
			continue
		}
		r2, d2 := MajorityLaw(q[:2], ell, DefaultTolerance)
		if diff := math.Abs(r[0]-r2[0]) + math.Abs(r[1]-r2[1]); diff > dropped+d2+1e-10 {
			t.Errorf("q=%v ℓ=%d: r = %v, k = 2 law %v", q, ell, r, r2)
		}
	}
}

// TestStage1LawMatchesTruncatedProfileSum performs the literal
// truncated-Poisson summation over received-count profiles that the
// closed form of stage1Law collapses: adopt[j] = Σ_profiles
// ΠPoissonPMF(λ_i, x_i) · x_j/Σx, truncated at x_i ≤ M. The two must
// agree within the profile tail mass — which the union bound
// Σ_j Pr(Poisson(λ_j) > M) conservatively covers.
func TestStage1LawMatchesTruncatedProfileSum(t *testing.T) {
	lambda := []float64{0.8, 0.5, 0.3}
	const M = 25
	adopt := make([]float64, len(lambda))
	stay := stage1Law(lambda, adopt)

	var sumAdopt [3]float64
	sumStay := 0.0
	var rec func(idx int, prob float64, counts [3]int)
	rec = func(idx int, prob float64, counts [3]int) {
		if idx == len(lambda) {
			total := counts[0] + counts[1] + counts[2]
			if total == 0 {
				sumStay += prob
				return
			}
			for j, c := range counts {
				sumAdopt[j] += prob * float64(c) / float64(total)
			}
			return
		}
		for x := 0; x <= M; x++ {
			counts[idx] = x
			rec(idx+1, prob*dist.PoissonPMF(lambda[idx], x), counts)
		}
	}
	rec(0, 1, [3]int{})

	tail := 0.0
	for _, l := range lambda {
		tail += 1 - dist.PoissonCDF(l, M)
	}
	for j := range lambda {
		if math.Abs(adopt[j]-sumAdopt[j]) > tail+1e-12 {
			t.Errorf("adopt[%d]: closed form %.12f vs truncated profile sum %.12f (tail bound %.3g)",
				j, adopt[j], sumAdopt[j], tail)
		}
	}
	if math.Abs(stay-sumStay) > tail+1e-12 {
		t.Errorf("stay: closed form %.12f vs truncated profile sum %.12f", stay, sumStay)
	}
	// Conservativeness of the tail estimate itself: the profile sum
	// plus the union-bound tail must cover all probability.
	covered := sumStay
	for _, v := range sumAdopt {
		covered += v
	}
	if 1-covered > tail+1e-12 {
		t.Errorf("profile-sum tail mass %.3g exceeds the union bound %.3g", 1-covered, tail)
	}
}

func TestStage1LawEdgeCases(t *testing.T) {
	adopt := make([]float64, 2)
	if stay := stage1Law([]float64{0, 0}, adopt); stay != 1 || adopt[0] != 0 || adopt[1] != 0 {
		t.Fatalf("zero-rate law = (%v, %v), want all mass on stay", adopt, stay)
	}
	// The engine's buffer is reused: the law overwrites it, zeros too.
	buf := []float64{0.5, 0.5}
	if stay := stage1Law([]float64{0, 0}, buf); stay != 1 || buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("zero-rate law into a used buffer = (%v, %v), want all mass on stay", buf, stay)
	}
	// Probabilities must form a distribution for a busy channel.
	adopt = make([]float64, 3)
	stay := stage1Law([]float64{3.5, 1.25, 0.25}, adopt)
	total := stay
	for _, v := range adopt {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("law sums to %v", total)
	}
}

// TestSurvivalMemoExactKey: the Stage-2 update-probability memo answers
// dist.PoissonSurvival bit for bit through a key sequence with more
// distinct keys than slots, so keys are evicted and derived again. Two
// of its λ lie one ulp apart and one λ recurs at two ℓ, so a key that
// rounds λ or ignores ℓ returns a neighbour's value.
func TestSurvivalMemoExactKey(t *testing.T) {
	lam := 33.0
	up := math.Nextafter(lam, math.Inf(1))
	if dist.PoissonSurvival(lam, 33) == dist.PoissonSurvival(up, 33) {
		t.Fatal("λ one ulp apart share a survival; the sequence cannot tell their keys apart")
	}
	type key struct {
		lambda float64
		ell    int64
	}
	keys := []key{{lam, 33}, {up, 33}, {lam, 35}}
	for ell := int64(37); len(keys) < survivalSlots+4; ell += 2 {
		keys = append(keys, key{float64(2 * ell), ell})
	}
	var seq []key
	seq = append(seq, keys...)
	seq = append(seq, keys[:survivalSlots/2]...) // hits
	for i := len(keys) - 1; i >= 0; i-- {
		seq = append(seq, keys[i]) // some hits, some evicted
	}
	seq = append(seq, keys...)
	var m survivalMemo
	for i, k := range seq {
		got, want := m.survival(k.lambda, k.ell), dist.PoissonSurvival(k.lambda, k.ell)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: survival(%v, %d) = %v, want %v", i, k.lambda, k.ell, got, want)
		}
	}
	// A repeated key is served from its slot, not derived again.
	var h survivalMemo
	h.survival(lam, 33)
	h.p[0] = -1
	if got := h.survival(lam, 33); got != -1 {
		t.Fatalf("repeated key returned %v, not its slot's value: the memo was not consulted", got)
	}
}

// TestMajorityLawSampleSizeOne: maj of a single draw is the draw, so
// the ℓ = 1 law must equal the composition law q with zero
// truncation beyond the pruned sub-cut classes.
func TestMajorityLawSampleSizeOne(t *testing.T) {
	q := []float64{0.5, 0.3, 0.2}
	r, dropped := MajorityLaw(q, 1, 1e-12)
	for j := range q {
		if math.Abs(r[j]-q[j]) > 1e-12 {
			t.Fatalf("MajorityLaw(q, 1)[%d] = %v, want q[%d] = %v", j, r[j], j, q[j])
		}
	}
	if dropped > 1e-12 {
		t.Fatalf("ℓ=1 law dropped %g mass", dropped)
	}
}

// lawFuzzTols are the truncation tolerances FuzzMajorityLaw draws
// from: the engine default and three looser ones at which every
// truncation site (mCut, stateCut, the rival windows) bites.
var lawFuzzTols = [...]float64{1e-13, 1e-9, 1e-6, 1e-3}

// lawFuzzEtas are the law-cache quantization steps η whose lattice
// FuzzMajorityLaw can snap q onto: -law-quant's benchmark step 10⁻³
// and three coarse ones whose lattice points (quantizeQ's m/Σm) sit on
// the simplex edge at enumerable ℓ — single lattice steps beside zeros
// and near-point masses, exact and half-way ties.
var lawFuzzEtas = [...]float64{1e-3, 1e-2, 0.1, 0.25}

// decodeLawInput maps fuzz bytes onto a valid MajorityLaw input:
// k ∈ 2…8, ℓ ∈ 1…128, tol from lawFuzzTols, and q built from one byte
// per opinion — 0 is a zero entry, 1 a 10⁻⁶ entry (2⁻⁵³ when bit 5 of
// tolb is set), anything else a weight for the remaining mass (equal
// bytes give exact ties, adjacent ones near-ties). A lone weight is a
// point mass; when no byte carries weight, opinion 0 becomes the one
// that does. Two equal weights beside one 2⁻⁵³ entry give each of them
// a share 1 − 2⁻⁵³ of the other's rivals. When bit 2 of tolb is set, q
// is then snapped onto the η-lattice of the law cache, η from
// lawFuzzEtas by tolb's bits 3–4: the lattice-edge inputs a quantized
// engine evaluates.
func decodeLawInput(kb, ellb, tolb uint8, qb []byte) ([]float64, int, float64) {
	k := 2 + int(kb)%7
	ell := 1 + int(ellb)%128
	tol := lawFuzzTols[int(tolb)%len(lawFuzzTols)]
	tiny := 1e-6
	if tolb&32 != 0 {
		tiny = 0x1p-53
	}
	codes := make([]byte, k)
	copy(codes, qb)
	if slices.Max(codes) < 2 {
		codes[0] = 2
	}
	q := make([]float64, k)
	rest, wsum := 1.0, 0.0
	for i, c := range codes {
		switch c {
		case 0:
		case 1:
			q[i] = tiny
			rest -= tiny
		default:
			wsum += float64(c)
		}
	}
	for i, c := range codes {
		if c >= 2 {
			q[i] = rest * float64(c) / wsum
		}
	}
	if tolb&4 != 0 {
		eta := lawFuzzEtas[int(tolb>>3)%len(lawFuzzEtas)]
		qhat, idx := make([]float64, k), make([]int64, k)
		// Some q_j ≥ 1/k ≥ η/2 rounds to a non-zero index, so the
		// snap cannot fail for these η.
		if _, ok := quantizeQ(q, eta, qhat, idx); !ok {
			panic(fmt.Sprintf("quantizeQ(%v, %g) found no lattice point", q, eta))
		}
		q = qhat
	}
	return q, ell, tol
}

// FuzzMajorityLaw pins MajorityLaw to the general rival DP (dpLaw,
// law_dp_test.go), whose own r it first pins bit for bit to the older
// frozen evaluator of law_ref_test.go, and its dropped to 0 ≤ dropped
// ≤ that copy's (the sure-loss floors stopped charging mass that can
// never win). Where the point-mass path answers, r and dropped must
// equal the DP's bit for bit. The k = 2 row walk, the k = 3 walk and
// the Poissonized k ≥ 4 path sum the same profiles in other orders (and
// k = 3 and k ≥ 4 prune other terms), so they are held to the DP within
// the two truncations: |r − r_DP|₁ ≤ dropped + dropped_DP + 10⁻¹², with
// 0 ≤ dropped ≤ tol.
// Both laws only ever remove mass from the exact one, so each lies
// within its own dropped of it. Relabelling is checked on every input:
// the law of the reversed q is the reversed law, within the two
// dropped masses — the rival order of the k = 3 walk and the
// prefix/suffix order of the k ≥ 4 path both follow opinion order. It
// checks the law's own contract on the same input: Σr + dropped covers
// all probability, and at enumerable ℓ, against analytic.MajProbs, no
// r[j] exceeds the exact value and the shortfall summed over opinions
// stays within dropped — tighter than a per-opinion two-sided gap,
// since truncation only ever removes mass. The committed corpus under
// testdata/fuzz/FuzzMajorityLaw replays on every plain go test.
func FuzzMajorityLaw(f *testing.F) {
	f.Fuzz(func(t *testing.T, kb, ellb, tolb uint8, qb []byte) {
		q, ell, tol := decodeLawInput(kb, ellb, tolb, qb)
		var ref refLawEvaluator
		want, wd := ref.eval(q, ell, tol)
		dr, dd := dpLaw(q, ell, tol)
		if !(dd >= 0 && dd <= wd) {
			t.Errorf("q=%v ℓ=%d tol=%g: rival DP dropped %v outside [0, reference %v]", q, ell, tol, dd, wd)
		}
		for j := range want {
			if math.Float64bits(dr[j]) != math.Float64bits(want[j]) {
				t.Errorf("q=%v ℓ=%d tol=%g: rival DP r[%d] = %v, reference %v", q, ell, tol, j, dr[j], want[j])
			}
		}
		got, gd := MajorityLaw(q, ell, tol)
		if slices.Contains(q, 1) {
			if math.Float64bits(gd) != math.Float64bits(dd) {
				t.Errorf("q=%v ℓ=%d tol=%g: dropped %v, rival DP %v", q, ell, tol, gd, dd)
			}
			for j := range dr {
				if math.Float64bits(got[j]) != math.Float64bits(dr[j]) {
					t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %v, rival DP %v", q, ell, tol, j, got[j], dr[j])
				}
			}
		} else {
			checkWithinDP(t, q, ell, tol, got, gd, dr, dd)
		}
		rev := slices.Clone(q)
		slices.Reverse(rev)
		rr, rd := MajorityLaw(rev, ell, tol)
		l1 := 0.0
		for j := range got {
			l1 += math.Abs(rr[len(q)-1-j] - got[j])
		}
		if l1 > gd+rd+1e-12 {
			t.Errorf("q=%v ℓ=%d tol=%g: reversed q moves the law by %.3g in L1, beyond dropped %.3g + %.3g",
				q, ell, tol, l1, gd, rd)
		}
		sum := 0.0
		for _, v := range got {
			sum += v
		}
		if sum+gd < 1-1e-11 {
			t.Errorf("q=%v ℓ=%d tol=%g: Σr + dropped = %v < 1", q, ell, tol, sum+gd)
		}
		if ell > 12 {
			return
		}
		enum := analytic.MajProbs(q, ell)
		short := 0.0
		for j := range enum {
			if got[j] > enum[j]+1e-13 {
				t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %.15g exceeds the enumeration %.15g",
					q, ell, tol, j, got[j], enum[j])
			}
			short += enum[j] - got[j]
		}
		if short > gd+1e-13 {
			t.Errorf("q=%v ℓ=%d tol=%g: Σ(enumeration − r) = %.3g exceeds dropped %.3g",
				q, ell, tol, short, gd)
		}
	})
}

// checkWithinDP is the k = 2, k = 3 and k ≥ 4 pin: the law r (dropped
// gd) lies within |r − r_DP|₁ ≤ gd + dd + 10⁻¹² of the rival DP's
// (dr, dd), and 0 ≤ gd ≤ tol. Each of the two sits below the exact law
// by at most its own dropped mass (TestTernaryLawMatchesExact holds
// k = 3 to that within 10⁻¹⁴), so they differ by at most the sum.
func checkWithinDP(t *testing.T, q []float64, ell int, tol float64, got []float64, gd float64, dr []float64, dd float64) {
	t.Helper()
	if !(gd >= 0 && gd <= tol) {
		t.Errorf("q=%v ℓ=%d tol=%g: dropped %v outside [0, tol]", q, ell, tol, gd)
	}
	l1 := 0.0
	for j := range dr {
		l1 += math.Abs(got[j] - dr[j])
	}
	if l1 > gd+dd+1e-12 {
		t.Errorf("q=%v ℓ=%d tol=%g: |r − r_DP|₁ = %.3g exceeds dropped %.3g + DP dropped %.3g",
			q, ell, tol, l1, gd, dd)
	}
}

// TestFastPathsBitIdenticalToDP pins the point-mass path bit for bit,
// r and dropped alike, against the general winner×count DP it
// short-cuts, at every fuzz tolerance. The k = 2, k = 3 and k ≥ 4
// paths sum the same terms in other orders, so they are held to the DP
// within the two dropped masses (TestBinaryLawWithinDP,
// TestTernaryLawWithinDP, TestPoissonLawMatchesDPAtCensusScale).
func TestFastPathsBitIdenticalToDP(t *testing.T) {
	cases := []struct {
		q   []float64
		ell int
	}{
		{[]float64{1, 0}, 9},
		{[]float64{0, 1}, 1},
		{[]float64{1, 0, 0}, 5},
		{[]float64{0, 0, 1}, 665},
		{[]float64{0, 0, 1, 0}, 81},
	}
	for _, tol := range lawFuzzTols {
		for _, c := range cases {
			r1, d1 := MajorityLaw(c.q, c.ell, tol)
			r2, d2 := dpLaw(c.q, c.ell, tol)
			if math.Float64bits(d1) != math.Float64bits(d2) {
				t.Errorf("q=%v ℓ=%d tol=%g: dropped %v (fast) vs %v (DP)", c.q, c.ell, tol, d1, d2)
			}
			for j := range r1 {
				if math.Float64bits(r1[j]) != math.Float64bits(r2[j]) {
					t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %v (fast) vs %v (DP) — not bit-identical",
						c.q, c.ell, tol, j, r1[j], r2[j])
				}
			}
		}
	}
}

// TestTernaryLawWithinDP holds the k = 3 walk to the rival DP within
// the two dropped masses (checkWithinDP) at every fuzz tolerance, on
// the pools its bit pin used to cover: the uniform pool, whose windows
// hold entries tying the first rival (a = m), the second (R − a = m)
// and, at m = ℓ/3, both; a zero rival placed first (pc = 0 under
// winners 1 and 2) and last (pc = 1 under winners 0 and 1); a 10⁻⁶
// rival; ℓ = 1 and 2, where every row holds at most one ball; a
// bisect-k3-like pool at ℓ = 57; and skewed and near-tied pools at
// ℓ = 665.
func TestTernaryLawWithinDP(t *testing.T) {
	third := 1.0 / 3
	for _, c := range []struct {
		q   []float64
		ell int
	}{
		{[]float64{third, third, third}, 9},
		{[]float64{third, third, third}, 81},
		{[]float64{0, 0.55, 0.45}, 57},
		{[]float64{0.5, 0.5, 0}, 16},
		{[]float64{0.6, 0.4 - 1e-6, 1e-6}, 57},
		{[]float64{0.5, 0.3, 0.2}, 1},
		{[]float64{0.4, 0.35, 0.25}, 2},
		{[]float64{0.36, 0.32, 0.32}, 57},
		{[]float64{0.8, 0.15, 0.05}, 665},
		{[]float64{0.34, 0.33, 0.33}, 665},
	} {
		for _, tol := range lawFuzzTols {
			got, gd := MajorityLaw(c.q, c.ell, tol)
			dr, dd := dpLaw(c.q, c.ell, tol)
			checkWithinDP(t, c.q, c.ell, tol, got, gd, dr, dd)
		}
	}
}

// TestBinaryLawWithinDP holds the k = 2 law to the rival DP within the
// two dropped masses (checkWithinDP) on the pools the bit pin used to
// cover: odd and even ℓ, skewed and near-tied, at every fuzz tolerance.
func TestBinaryLawWithinDP(t *testing.T) {
	for _, c := range []struct {
		q   []float64
		ell int
	}{
		{[]float64{0.7, 0.3}, 11},
		{[]float64{0.55, 0.45}, 665},
		{[]float64{0.5, 0.5}, 16},
		{[]float64{0.999, 0.001}, 33},
	} {
		for _, tol := range lawFuzzTols {
			got, gd := MajorityLaw(c.q, c.ell, tol)
			dr, dd := dpLaw(c.q, c.ell, tol)
			checkWithinDP(t, c.q, c.ell, tol, got, gd, dr, dd)
		}
	}
}

// TestLawEvaluatorMatchesMajorityLaw: the reusable evaluator must
// return the exact floats of a fresh one (the allocating wrapper), r
// and dropped alike, across reuse at varying (k, ℓ, q, tol), and lie
// within the two dropped masses of the rival DP. Stale scratch is the
// way this can fail: every row, prefix, suffix, cap-free product and
// k = 3 winning count is read only inside the window or band the same
// evaluation wrote. So the sequence
// shrinks and regrows k (8 → 3 → 5) and ℓ (120 → 11 → 81, and
// 443 → 11 → 665 at k = 5), loosens, then tightens, the tolerance,
// evaluates different pools back to back at one (k, ℓ, tol), and runs
// a cap-free → capped → cap-free sequence of pools at one (k, ℓ): a
// pool whose winner's counts all lie above every rival's window, one
// where prefixes and suffixes carry every winner, and a second
// cap-free one with different windows.
func TestLawEvaluatorMatchesMajorityLaw(t *testing.T) {
	var ev lawEvaluator
	cases := []struct {
		q   []float64
		ell int
		tol float64
	}{
		{[]float64{0.9, 0.04, 0.03, 0.02, 0.01}, 9, 1e-13},
		{[]float64{0.5, 0.3, 0.2}, 33, 1e-13},
		{[]float64{0.7, 0.3}, 11, 1e-13},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 81, 1e-13},
		{[]float64{0.5, 0.3, 0.2}, 5, 1e-13},
		{[]float64{0.16, 0.14, 0.14, 0.12, 0.12, 0.12, 0.1, 0.1}, 120, 1e-13},
		{[]float64{0.4, 0.35, 0.25}, 11, 1e-6},
		{[]float64{0.38, 0.34, 0.28}, 11, 1e-3},
		{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 81, 1e-9},
		{[]float64{0.3, 0.25, 0.2, 0.15, 0.1}, 81, 1e-13},
		// Same (k, ℓ, tol), a different pool each time: every row and
		// window of the previous call is stale.
		{[]float64{0.1, 0.15, 0.2, 0.25, 0.3}, 81, 1e-13},
		{[]float64{0.2, 0.2, 0.2, 0.2, 0.2}, 81, 1e-13},
		{[]float64{0.3, 0.25, 0.2, 0.15, 0.1}, 81, 1e-13},
		{[]float64{0.2, 0.1, 0.5, 0.2}, 40, 1e-13},
		{[]float64{0.2, 0.1, 0.5, 0.2}, 40, 1e-6},
		{[]float64{0.15, 0.05, 0.6, 0.1, 0.1}, 64, 1e-13},
		// Cap-free → capped → cap-free at k = 5, ℓ = 443.
		{[]float64{0.7, 0.075, 0.075, 0.075, 0.075}, 443, 1e-13},
		{[]float64{0.24, 0.19, 0.19, 0.19, 0.19}, 443, 1e-13},
		{[]float64{0.03, 0.03, 0.03, 0.06, 0.85}, 443, 1e-13},
		// ℓ going 443 → 11 → 665 at k = 5.
		{[]float64{0.5, 0.125, 0.125, 0.125, 0.125}, 443, 1e-13},
		{[]float64{0.3, 0.25, 0.2, 0.15, 0.1}, 11, 1e-13},
		{[]float64{0.5, 0.125, 0.125, 0.125, 0.125}, 665, 1e-13},
	}
	for _, c := range cases {
		want, wd := MajorityLaw(c.q, c.ell, c.tol)
		got, gd := ev.eval(c.q, c.ell, c.tol)
		if wd != gd {
			t.Errorf("q=%v ℓ=%d tol=%g: dropped %v vs fresh %v", c.q, c.ell, c.tol, gd, wd)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("q=%v ℓ=%d tol=%g: r[%d] = %v vs fresh %v", c.q, c.ell, c.tol, j, got[j], want[j])
			}
		}
		dr, dd := dpLaw(c.q, c.ell, c.tol)
		checkWithinDP(t, c.q, c.ell, c.tol, got, gd, dr, dd)
	}
}

// TestLawEvaluatorZeroAllocs pins the lawEvaluator contract that a
// warmed evaluator allocates nothing: the engine evaluates the law in
// every exact k ≥ 3 Stage-2 phase, so one allocation per call would
// show up as GC work across a sweep.
func TestLawEvaluatorZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		q   []float64
		ell int
	}{
		{[]float64{0.55, 0.45}, 81},
		{[]float64{0.4, 0.35, 0.25}, 81},
		{[]float64{0.3, 0.25, 0.2, 0.15, 0.1}, 81},
		{[]float64{0.5, 0.125, 0.125, 0.125, 0.125}, 443},
		{[]float64{0.16, 0.14, 0.14, 0.12, 0.12, 0.12, 0.1, 0.1}, 81},
	} {
		var ev lawEvaluator
		ev.eval(c.q, c.ell, DefaultTolerance)
		if n := testing.AllocsPerRun(10, func() { ev.eval(c.q, c.ell, DefaultTolerance) }); n != 0 {
			t.Errorf("k=%d ℓ=%d: warmed eval allocates %v times per call, want 0", len(c.q), c.ell, n)
		}
	}
}

// TestBinomPMFBitIdentical pins the shared table-driven kernel against
// dist.BinomialPMF bit for bit — every law and certificate term goes
// through it — on the table's interior and edges, past its end (the
// dist fallback), off the support, and at degenerate p.
func TestBinomPMFBitIdentical(t *testing.T) {
	for _, p := range []float64{0, 1e-300, 1e-6, 0.1, 1.0 / 3, 0.5, 0.77, 1 - 1e-9, 1, 1 + 1e-10} {
		lp, lq := math.Log(p), math.Log1p(-p)
		for _, n := range []int{0, 1, 2, 11, 81, 665, lfactSize - 1, lfactSize, 3 * lfactSize} {
			for _, k := range []int{-1, 0, 1, n / 3, n / 2, n - 1, n, n + 1} {
				got, want := binomPMF(lfact(), n, k, p, lp, lq), dist.BinomialPMF(n, k, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("binomPMF(%d, %d, %v) = %v, dist.BinomialPMF %v", n, k, p, got, want)
				}
			}
		}
	}
}
