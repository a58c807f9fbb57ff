package census

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// This file freezes the majority-law evaluator as it stood before the
// shared binomial kernel, the hoisted rival conditionals and the
// band-limited DP layers: every pmf term through dist.BinomialPMF, the
// rival conditionals recomputed inside each winProb call, and both DP
// layers cleared in full per rival. The code below is that evaluator
// verbatim, with only its two types renamed (refLawEvaluator,
// refMajorityDP). FuzzMajorityLaw and the reuse tests require the
// production evaluator to return the same floats bit for bit.

// refLawEvaluator owns the reusable buffers of a MajorityLaw evaluation:
// the result vector and the rival-scan DP scratch. The zero value is
// ready to use; after the first eval, further calls at the same (or
// smaller) k and ℓ allocate nothing. The slice returned by eval is
// owned by the evaluator and valid until the next eval call.
type refLawEvaluator struct {
	r  []float64
	dp refMajorityDP
}

// eval is MajorityLaw into the evaluator's reusable buffers. See the
// MajorityLaw contract for semantics; the two are bit-identical.
func (ev *refLawEvaluator) eval(q []float64, ell int, tol float64) ([]float64, float64) {
	k := len(q)
	if k == 0 {
		panic("census: MajorityLaw with empty distribution")
	}
	if ell < 1 {
		panic(fmt.Sprintf("census: MajorityLaw with ℓ=%d", ell))
	}
	if tol <= 0 || math.IsNaN(tol) {
		panic(fmt.Sprintf("census: MajorityLaw with tol=%v", tol))
	}
	total := 0.0
	for j, p := range q {
		if p < 0 || math.IsNaN(p) {
			panic(fmt.Sprintf("census: MajorityLaw with q[%d]=%v", j, p))
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		panic(fmt.Sprintf("census: MajorityLaw probabilities sum to %v", total))
	}
	if cap(ev.r) < k {
		ev.r = make([]float64, k)
	}
	r := ev.r[:k]
	for j := range r {
		r[j] = 0
	}
	if k == 1 {
		r[0] = 1
		return r, 0
	}
	mCut := tol / (4 * float64(ell+1))
	stateCut := tol / (4 * float64(ell+1) * float64(k))
	// Point-mass fast path: a degenerate pool puts every subsample ball
	// on one opinion, so maj = j surely. The general path reproduces
	// exactly this (the single surviving term is m = ℓ with pm = 1 and
	// a ball-free rival scan) whenever that term clears the mCut gate —
	// hence the mCut ≤ 1 guard, which every real tolerance satisfies.
	if mCut <= 1 {
		for j, p := range q {
			if p != 1 {
				continue
			}
			exact := true
			for i, pi := range q {
				if i != j && pi != 0 {
					exact = false
					break
				}
			}
			if exact {
				r[j] = 1
				return r, 0
			}
		}
	}
	if k == 2 {
		return ev.evalBinary(q, ell, mCut, stateCut, r)
	}
	return ev.evalGeneral(q, ell, mCut, stateCut, r)
}

// evalGeneral is the winner×count binomial factoring with the rival
// DP — the path every k ≥ 3 non-degenerate pool takes, and the
// reference the fast paths are pinned bit-identical against.
func (ev *refLawEvaluator) evalGeneral(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	k := len(q)
	dropped := 0.0
	dp := &ev.dp
	dp.ensure(k, ell)
	for j := 0; j < k; j++ {
		if q[j] == 0 {
			// Y_j = 0 surely; with ℓ ≥ 1 some rival holds a ball, so
			// j can neither win nor tie for the maximum.
			continue
		}
		for m := 0; m <= ell; m++ {
			pm := dist.BinomialPMF(ell, m, q[j])
			if pm == 0 {
				continue
			}
			if pm < mCut {
				dropped += pm
				continue
			}
			win, dpDropped := dp.winProb(q, j, m, stateCut)
			r[j] += pm * win
			dropped += pm * dpDropped
		}
	}
	return r, dropped
}

// evalBinary is the k = 2 analytic fast path: the single rival absorbs
// all remaining balls, so conditional on Y_j = m the outcome is
// deterministic — a strict win for m > ℓ−m, a two-way u.a.r. tie at
// m = ℓ−m, a loss below — and the law is the plain binomial tail of
// TestMajorityLawBinomialIdentity. Every branch mirrors a winProb
// branch (balls == 0 / m == 0 early returns, the stateCut prune of the
// unit root state, the R > m loss) with the same float arithmetic, so
// the path is bit-identical to the DP at any tolerance.
func (ev *refLawEvaluator) evalBinary(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	dropped := 0.0
	for j := 0; j < 2; j++ {
		if q[j] == 0 {
			continue
		}
		for m := 0; m <= ell; m++ {
			pm := dist.BinomialPMF(ell, m, q[j])
			if pm == 0 {
				continue
			}
			if pm < mCut {
				dropped += pm
				continue
			}
			balls := ell - m
			switch {
			case balls == 0:
				r[j] += pm // winProb's ball-free strict win
			case m == 0:
				// The rival holds ≥ 1 balls: a sure loss.
			case 1 < stateCut:
				// The DP's unit root state falls below the cut; the
				// general path prunes the whole conditional mass.
				dropped += pm
			case balls > m:
				// The rival's forced count beats m: a loss, not
				// truncation.
			case balls == m:
				r[j] += pm * 0.5 // two-way tie, broken u.a.r.
			default:
				r[j] += pm // strict win
			}
		}
	}
	return r, dropped
}

// refMajorityDP holds the scratch buffers of the rival-profile scan so
// one phase's O(k·window) winProb calls do not allocate.
type refMajorityDP struct {
	k   int
	ell int
	f   []float64 // (ballsPlaced, ties) layer, ties-major within a row
	g   []float64 // next layer
	pmf []float64 // per-(state,rival) binomial row
}

// ensure sizes the scratch for a (k, ℓ) evaluation, growing (never
// shrinking) the backing arrays so an evaluator amortizes to zero
// allocations. Stale buffer contents are harmless: winProb zeroes the
// layers it reads and binomRow's window is fully rewritten before use.
func (dp *refMajorityDP) ensure(k, ell int) {
	dp.k, dp.ell = k, ell
	if need := (ell + 1) * k; len(dp.f) < need {
		dp.f = make([]float64, need)
		dp.g = make([]float64, need)
	}
	if len(dp.pmf) < ell+1 {
		dp.pmf = make([]float64, ell+1)
	}
}

// winProb returns Pr(maj = j | Y_j = m) for Y ~ Multinomial(ell, q)
// (ties u.a.r.) together with the conditional probability mass it
// pruned below cut. The rival profile conditional on Y_j = m is
// Multinomial(ell−m, q_{−j}/(1−q_j)), factored into sequential
// conditional binomials in opinion order.
func (dp *refMajorityDP) winProb(q []float64, j, m int, cut float64) (float64, float64) {
	k := dp.k
	balls := dp.ell - m // rival balls to place
	// No rival balls: every rival sits at 0 < m — a strict win —
	// unless m = 0, which cannot happen for ℓ ≥ 1.
	if balls == 0 {
		return 1, 0
	}
	if m == 0 {
		// Rivals hold balls ≥ 1 balls, so some rival exceeds zero.
		return 0, 0
	}
	f, g := dp.f, dp.g
	for i := range f[:(balls+1)*k] {
		f[i] = 0
	}
	f[0] = 1 // ballsPlaced=0, ties=0
	remMass := 1 - q[j]
	pruned := 0.0
	rivals := 0
	for i := range q {
		if i != j {
			rivals++
		}
	}
	for i := range q {
		if i == j {
			continue
		}
		rivals--
		last := rivals == 0
		pc := 0.0
		if remMass > 0 {
			pc = q[i] / remMass
			if pc > 1 {
				pc = 1
			}
		}
		remMass -= q[i]
		for x := range g[:(balls+1)*k] {
			g[x] = 0
		}
		for b := 0; b <= balls; b++ {
			row := f[b*k : b*k+k]
			R := balls - b
			lo, hi := 0, -1
			rowPruned := 0.0
			windowReady := false
			for t := 0; t < k; t++ {
				v := row[t]
				if v == 0 {
					continue
				}
				if v < cut {
					pruned += v
					continue
				}
				if last {
					// The final rival absorbs the remaining R balls
					// exactly (its conditional success probability is
					// 1). R > m means a rival beats the winner — a
					// loss for j, not truncated mass.
					if R > m {
						continue
					}
					ti := t
					if R == m {
						ti++
					}
					g[(b+R)*k+ti] += v
					continue
				}
				if !windowReady {
					amax := m
					if R < amax {
						amax = R
					}
					lo, hi, rowPruned = dp.binomRow(R, pc, amax, cut)
					windowReady = true
				}
				pruned += v * rowPruned
				for a := lo; a <= hi; a++ {
					w := dp.pmf[a]
					if w == 0 {
						continue
					}
					ti := t
					if a == m {
						ti++
					}
					g[(b+a)*k+ti] += v * w
				}
			}
		}
		f, g = g, f
	}
	win := 0.0
	row := f[balls*k : balls*k+k]
	for t, v := range row {
		if v != 0 {
			win += v / float64(t+1)
		}
	}
	return win, pruned
}

// binomRow fills dp.pmf[a] = Pr(Binomial(R, p) = a) for a in the
// returned contiguous window [lo, hi] ⊆ [0, amax] of entries ≥ cut,
// and returns the pruned mass: the PMF total over [0, amax] outside
// the window. Mass above amax (a rival count exceeding the candidate
// winner) is deliberately not included — those profiles belong to
// other (winner, count) terms, not to the truncation error. The PMF
// is evaluated once at the in-range mode (log space) and extended by
// its two-term recurrence, so a call costs O(amax) with a single Exp.
func (dp *refMajorityDP) binomRow(R int, p float64, amax int, cut float64) (lo, hi int, pruned float64) {
	if amax > R {
		amax = R
	}
	if p <= 0 {
		dp.pmf[0] = 1
		return 0, 0, 0
	}
	if p >= 1 {
		if R <= amax {
			dp.pmf[R] = 1
			return R, R, 0
		}
		return 0, -1, 0 // all mass above the cap: a loss, not truncation
	}
	mode := int(float64(R+1) * p)
	if mode > amax {
		mode = amax
	}
	center := dist.BinomialPMF(R, mode, p)
	if center < cut {
		// The entire in-cap range is below the cut. Its true mass is
		// at most the cap-range CDF; bound it conservatively by the
		// unimodal envelope (amax+1 terms each ≤ center).
		return 0, -1, float64(amax+1) * center
	}
	odds := p / (1 - p)
	dp.pmf[mode] = center
	lo = 0
	v := center
	for a := mode - 1; a >= 0; a-- {
		// pmf(a) = pmf(a+1)·(a+1)/((R−a)·odds)
		v *= float64(a+1) / (float64(R-a) * odds)
		if v < cut {
			// The remaining lower tail is monotone decreasing; sum
			// what the recurrence yields until it underflows.
			for aa := a; aa >= 0 && v > 0; aa-- {
				pruned += v
				v *= float64(aa) / (float64(R-aa+1) * odds)
			}
			lo = a + 1
			break
		}
		dp.pmf[a] = v
	}
	hi = amax
	v = center
	for a := mode + 1; a <= amax; a++ {
		// pmf(a) = pmf(a−1)·(R−a+1)/a·odds
		v *= float64(R-a+1) / float64(a) * odds
		if v < cut {
			for aa := a; aa <= amax && v > 0; aa++ {
				pruned += v
				v *= float64(R-aa) / float64(aa+1) * odds
			}
			hi = a - 1
			break
		}
		dp.pmf[a] = v
	}
	return lo, hi, pruned
}
