package census

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// stage1Law writes the exact phase-end law of one undecided node under
// process P (Definition 4) into adopt (len(lambda), overwritten) and
// returns stay, given the phase's noisy message multiset expressed as
// per-opinion Poisson rates lambda[j] = g_j/n: adopt[j] is the
// probability of ending the phase with opinion j and stay the
// probability of remaining undecided.
//
// The closed form is where the truncated-Poisson profile summation of
// the census law collapses exactly: a node receives X_j ~
// Poisson(λ_j) independent messages and, when S = ΣX > 0, adopts an
// opinion drawn u.a.r. among the received messages, i.e. opinion j
// with probability X_j/S. Conditional on S = s > 0 the profile X is
// Multinomial(s, λ/Λ), so E[X_j/S | S = s] = λ_j/Λ for every s, and
//
//	adopt[j] = (λ_j/Λ)·(1 − e^(−Λ)),   stay = e^(−Λ).
//
// No truncation is involved; the truncated summation over
// received-count profiles (which the law tests perform literally)
// converges to exactly this. Stage 1 therefore contributes zero to
// the census engine's Lemma-3 truncation budget.
func stage1Law(lambda, adopt []float64) (stay float64) {
	total := 0.0
	for j, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			panic(fmt.Sprintf("census: stage1Law with lambda[%d]=%v", j, l))
		}
		total += l
	}
	if total == 0 {
		clear(adopt)
		return 1
	}
	stay = math.Exp(-total)
	hit := -math.Expm1(-total) // 1 − e^(−Λ) without cancellation
	for j, l := range lambda {
		adopt[j] = l / total * hit
	}
	return stay
}

// MajorityLaw returns r[j] = Pr(maj(Y) = j) for Y ~ Multinomial(ell,
// q) with ties broken uniformly at random — the class-independent
// adoption law of one Stage-2 update under process P: a uniform
// ℓ-subsample of a node's received multiset has exactly this
// composition law (see the package comment). The second return value
// is the total probability mass the truncated summation dropped, a
// conservative bound on the total-variation gap to the exact law
// (every skipped term's mass is accumulated, never estimated) — the
// per-node quantity the engine wires into its Lemma-3 coupling
// budget.
//
// The evaluation sums over received-count profiles in factored form:
// for each candidate winner j and winning count m, the profiles with
// Y_j = m whose rivals all hold at most m balls, a profile with t
// rivals tied at m counting 1/(t+1), the uniform tie-break. Sure
// losses are neither won nor dropped: a winning count m < ⌈ℓ/k⌉ is
// skipped outright (the rivals then hold more than m(k−1) balls), and
// no partial rival profile is kept once the rivals still to come could
// not absorb the remaining balls at m each. Truncation — all of it
// accounted into dropped — happens at two kinds of site: winning counts
// whose binomial mass lies below tol/(4(ℓ+1)), and count windows pruned
// below tol/(4(ℓ+1)k). The cost is independent of n and, once the
// windows bind, scales with the binomial standard deviations rather
// than ℓ^(k−1); analytic.MajProbs (an exhaustive enumeration) is the
// cross-check oracle at small ℓ.
//
// k ≥ 4 pools take the Poissonized path, evalPoisson. With X_i ~
// Poisson(ℓq_i) independent, Multinomial(ℓ, q) is the law of X given
// ΣX = ℓ, so Pr(Y = y) = ∏ᵢ Pois(yᵢ; ℓqᵢ) ÷ Pois(ℓ; ℓ), and each
// opinion's row of Poisson terms is computed once per evaluation,
// independent of the winner and of the other rivals. A winner's rival
// sum is then a product of rows: once no rival's window reaches the
// winning count, a tie-free product that does not depend on the count
// and is built once per winner; otherwise capped prefix and suffix
// products over the opinions before and after it, shared by all the
// winners at that count. Each row's pruned tails are charged as their
// exact binomial marginal mass, which covers every profile through a
// pruned entry, whichever opinion wins. The normaliser and each row's
// mode value come from Loader's saddle-point form of the Poisson pmf,
// whose rounding does not grow with ℓ. This path is exact up to float
// rounding and the accounted truncation; it is pinned to the general
// rival DP within the two evaluations' dropped masses (FuzzMajorityLaw,
// TestPoissonLawMatchesDPAtCensusScale).
//
// k = 2 is one row: the single rival absorbs every ball the winner
// leaves, so the law is Binomial(ℓ, q₀/(q₀+q₁)) of opinion 0's count
// split at ℓ/2, a tie at m = ℓ/2 broken u.a.r. evalBinary evaluates
// the row once at its mode (binomSaddle, Loader's saddle-point form)
// and extends it by the two-term recurrence until it underflows, one
// Exp per evaluation; each entry below tol/(4(ℓ+1)) is dropped once.
// It sums the DP's terms in another order, so it is pinned to the DP
// within the two dropped masses, and to a 300-bit evaluation of the row
// within 10⁻¹² (TestBinaryLawMatchesExactTail).
//
// k = 3 is one walk per winner (evalTernary): its winning-count row
// from one binomSaddle value, extended by the recurrence like k = 2's;
// a strict majority 2m > ℓ wins outright and walks no rival row; below
// it, the first rival's window ℓ − 2m ≤ a ≤ m is summed from a rival
// row whose centre is carried from count to count from one more
// saddle-point anchor, the window ends weighing ½ (⅓ at ℓ = 3m). It is
// pinned to a 200-bit enumeration of the trinomial lattice: no r[j]
// more than 10⁻¹⁴ above the exact law, and the shortfall within
// dropped + 10⁻¹⁴ (TestTernaryLawMatchesExact), and to the DP within the
// two dropped masses.
//
// One fast path answers bit-identically to that DP, r and dropped alike
// (pinned by TestFastPathsBitIdenticalToDP and FuzzMajorityLaw): a
// point-mass q (the consensus endgame, where most phases of a winning
// trial live) collapses to r = q in O(k).
//
// The centre of each k ≥ 4 binomial marginal comes from binomPMF, one
// table-driven kernel (ln Γ read from a lazily built table, fetched
// once per evaluation, ln p and ln(1−p) hoisted per row) that
// reproduces dist.BinomialPMF bit for bit and that the quantization
// certificate shares.
//
// MajorityLaw allocates its result and scratch; hot paths hold a
// lawEvaluator and call eval, which reuses both.
func MajorityLaw(q []float64, ell int, tol float64) ([]float64, float64) {
	var ev lawEvaluator
	return ev.eval(q, ell, tol)
}

// lawEvaluator owns the reusable buffers of a MajorityLaw evaluation:
// the result vector, the k = 3 walk's kept winning counts, and the
// k ≥ 4 path's Poisson rows and products. The zero value is ready to
// use; after the first eval, further calls at the same (or smaller) k
// and ℓ allocate nothing. The slice returned by eval is owned by the
// evaluator and valid until the next eval call.
type lawEvaluator struct {
	r []float64
	// pm[m] is the winning-count pmf of the k = 3 walk's kept counts
	// m ≤ ℓ/2, written before it is read in the same walk.
	pm []float64
	pz poissonLaw
}

// eval is MajorityLaw into the evaluator's reusable buffers. See the
// MajorityLaw contract for semantics; the two are bit-identical.
func (ev *lawEvaluator) eval(q []float64, ell int, tol float64) ([]float64, float64) {
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
	switch k {
	case 2:
		return ev.evalBinary(q, ell, mCut, r)
	case 3:
		return ev.evalTernary(q, ell, mCut, stateCut, r)
	}
	return ev.evalPoisson(q, ell, mCut, stateCut, r)
}

// evalTernary is the k = 3 path: one walk per winner j. Its winning
// count m is Binomial(ℓ, p), p = q_j/Σq; the first rival in opinion
// order holds a ~ Binomial(R, pc) of the R = ℓ − m balls left, pc its
// share of the two rivals, and the second rival the other R − a.
//
// The count row is one binomSaddle value at its mode, clamped to at
// least the sure-loss floor ⌈ℓ/3⌉, extended both ways by the two-term
// recurrence until it underflows; a count below mCut is dropped. A
// strict majority, 2m > ℓ, leaves the rivals fewer balls between them
// than the winner holds, so it wins with probability 1 and walks no
// rival row. A count ⌈ℓ/3⌉ ≤ m ≤ ℓ/2 wins on the window
// ℓ − 2m ≤ a ≤ m, whose two ends tie the winner with one rival each
// (weight ½) and meet at ℓ = 3m in a three-way tie (weight ⅓);
// ternaryWindow sums it. Those counts are walked downwards from the
// highest kept one, carrying the rival row's value at its mode clamped
// into the window from count to count: one binomSaddle anchor per
// winner, then B_{R+1}(a) = B_R(a)·(R+1)(1−pc)/(R+1−a) and at most two
// steps along the row. Going down, the window shrinks away from the
// row's mode, so the carried value never grows: once it underflows, no
// lower window holds mass. A zero rival leaves the other holding all R
// balls, a tie at 2m = ℓ and a loss below it.
func (ev *lawEvaluator) evalTernary(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	lf := lfact()
	floor := (ell + 2) / 3
	half := ell / 2 // the highest count that is no strict majority
	if len(ev.pm) < half+1 {
		ev.pm = make([]float64, half+1)
	}
	pm := ev.pm
	total := q[0] + q[1] + q[2]
	dropped := 0.0
	for j, p := range q {
		if p == 0 {
			continue
		}
		i1, i2 := 0, 2
		switch j {
		case 0:
			i1 = 1
		case 2:
			i2 = 1
		}
		x, y := q[i1], q[i2]
		won := 0.0
		// The kept counts m ≤ ℓ/2 land in pm[mLo…mHi], one run around
		// the row's centre.
		mLo, mHi := half+1, -1
		keep := func(m int, v float64) {
			switch {
			case v < mCut:
				dropped += v
			case 2*m > ell:
				won += v
			default:
				pm[m] = v
				mLo, mHi = min(mLo, m), max(mHi, m)
			}
		}
		odds := p / (x + y)
		c := max(min(int(float64(ell+1)*(p/total)), ell), floor)
		centre := binomSaddle(lf, ell, c, p/total, (x+y)/total)
		keep(c, centre)
		v := centre
		for m := c - 1; m >= floor && v > 0; m-- {
			// pmf(m) = pmf(m+1)·(m+1)/((ℓ−m)·odds)
			v *= float64(m+1) / (float64(ell-m) * odds)
			keep(m, v)
		}
		v = centre
		for m := c + 1; m <= ell && v > 0; m++ {
			// pmf(m) = pmf(m−1)·(ℓ−m+1)/m·odds
			v *= float64(ell-m+1) / float64(m) * odds
			keep(m, v)
		}
		rodds := x / y
		switch {
		case mLo > mHi:
		case rodds == 0 || math.IsInf(rodds, 1):
			// One rival's share is zero, or too small for float64 beside
			// the other's.
			if 2*mHi == ell {
				won += pm[mHi] / 2
			}
		default:
			pc, pcc := x/(x+y), y/(x+y)
			// centreIn is the rival row's mode clamped into count m's
			// window.
			centreIn := func(m, R int) int {
				return min(max(min(int(float64(R+1)*pc), R), R-m), m)
			}
			m, R := mHi, ell-mHi
			a := centreIn(m, R)
			b := binomSaddle(lf, R, a, pc, pcc)
			for {
				w, pruned := ternaryWindow(R, R-m, m, a, b, rodds, stateCut)
				won += pm[m] * w
				dropped += pm[m] * pruned
				if m == mLo {
					break
				}
				m, R = m-1, R+1
				b *= float64(R) * pcc / float64(R-a)
				for t := centreIn(m, R); a != t; {
					if a < t {
						b *= float64(R-a) / float64(a+1) * rodds
						a++
					} else {
						b *= float64(a) / (float64(R-a+1) * rodds)
						a--
					}
				}
			}
		}
		r[j] = won
	}
	return r, dropped
}

// ternaryWindow returns the win probability and the pruned mass of one
// k = 3 window lo ≤ a ≤ hi of the rival row Binomial(R, pc), odds =
// pc/(1−pc), given its value b at the row's mode clamped into the
// window, c. The row is walked outwards from c; an entry below cut
// prunes the rest of its side down to underflow, and the window ends
// weigh ½, a single entry ⅓. A c below cut is the whole window pruned,
// charged by the envelope (hi − lo + 1)·b: no window entry exceeds b.
func ternaryWindow(R, lo, hi, c int, b, odds, cut float64) (win, pruned float64) {
	if b < cut {
		return 0, float64(hi-lo+1) * b
	}
	sum, ends := b, 0.0
	if c == lo || c == hi {
		ends = b
	}
	v := b
	for a := c - 1; a >= lo; a-- {
		// pmf(a) = pmf(a+1)·(a+1)/((R−a)·odds)
		v *= float64(a+1) / (float64(R-a) * odds)
		if v < cut {
			for ; a >= lo && v > 0; a-- {
				pruned += v
				v *= float64(a) / (float64(R-a+1) * odds)
			}
			break
		}
		sum += v
		if a == lo {
			ends += v
		}
	}
	v = b
	for a := c + 1; a <= hi; a++ {
		// pmf(a) = pmf(a−1)·(R−a+1)/a·odds
		v *= float64(R-a+1) / float64(a) * odds
		if v < cut {
			for ; a <= hi && v > 0; a++ {
				pruned += v
				v *= float64(R-a) / float64(a+1) * odds
			}
			break
		}
		sum += v
		if a == hi {
			ends += v
		}
	}
	if lo == hi {
		return sum / 3, pruned
	}
	return sum - ends/2, pruned
}

// lfactSize bounds the memoized ln(i!) table: it covers every
// realistic subsample size ℓ (schedules reach the low thousands at
// n = 10¹²); larger arguments fall back to dist.BinomialPMF.
const lfactSize = 1 << 14

// lfact memoizes ln Γ(i+1) for binomPMF. It is built on first use, so
// a run that evaluates no law (a resume from a complete journal) never
// pays for it.
var lfact = sync.OnceValue(func() []float64 {
	t := make([]float64, lfactSize)
	for i := range t {
		t[i], _ = math.Lgamma(float64(i) + 1)
	}
	return t
})

// binomPMF is dist.BinomialPMF for the hot law and certificate loops:
// the caller supplies lf, the lfact table fetched once per evaluation,
// and lp = ln p and lq = ln(1−p), hoisted once per winner, rival or
// pair; the log-binomial coefficient comes from lf. The operations and
// their order replicate dist.BinomialPMF exactly, so the value is
// bit-identical, at one Exp per call instead of three Lgamma, a Log, a
// Log1p and an Exp. Degenerate p and n beyond the table defer to
// dist.BinomialPMF.
func binomPMF(lf []float64, n, k int, p, lp, lq float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p > 0 && p < 1 && n < len(lf) {
		return math.Exp(lf[n] - lf[k] - lf[n-k] + float64(k)*lp + float64(n-k)*lq)
	}
	return dist.BinomialPMF(n, k, p)
}

// evalPoisson is the k ≥ 4 path (see MajorityLaw for the identity it
// rests on). It runs in three steps.
//
// Rows. For each opinion i, setRow keeps the window [lo_i, hi_i] of
// counts whose binomial marginal B_i(a) = Pr(Y_i = a) is at least
// stateCut, stores the Poisson terms P_i(a) = Pois(a; ℓq_i) over it,
// and charges the pruned tails Σ B_i(a) to dropped: every profile
// through a pruned entry lies in them, whichever opinion wins. Opinion
// j is active at a winning count m ≥ ⌈ℓ/k⌉ inside its window when
// B_j(m) ≥ mCut; a count in the window below that cut charges B_j(m).
//
// Capped counts. While some rival's window reaches m, winner j's term
// is P_j(m) · Σ_{b,t,u} F_j(b,t)·G_{j+1}(ℓ−m−b,u)/(t+u+1), where the
// prefix F_j is the product of the rows of opinions 0…j−1 and the
// suffix G_{j+1} that of opinions j+1…k−1, each row cut above m and its
// a = m entry moved to the next tie plane, so t + u rivals tie the
// winner. All the winners active at m share one pass: suffixes are
// built down to the lowest of them, prefixes up to the highest. A
// partial product keeps no ball count that no rival completion can
// reach (each remaining rival holds at least lo_i and at most
// min(hi_i, m) balls), so nothing is pruned here and nothing charged.
//
// Cap-free counts. Once m exceeds every rival's hi_i, no rival can
// reach or tie m, and the rival sum is H_j(ℓ−m) with H_j the plain
// product of the rival rows: it no longer depends on m, so it is built
// once per winner and read for each such count.
//
// Each winner's terms are summed in ascending m and divided once by
// the normaliser Pois(ℓ; ℓ).
func (ev *lawEvaluator) evalPoisson(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	k := len(q)
	pz := &ev.pz
	pz.ensure(k, ell)
	lf := lfact()
	floor := (ell + k - 1) / k
	total := 0.0
	for _, p := range q {
		total += p
	}
	dropped := 0.0
	for i, p := range q {
		// q sums to 1 within 10⁻⁹; dividing by the sum makes the rows'
		// binomial marginals and their Poisson terms describe one law.
		tail, gated := pz.setRow(lf, i, ell, p/total, floor, mCut, stateCut)
		dropped += tail + gated
		if pz.lo[i] > pz.hi[i] {
			return r, dropped // a whole row pruned: nothing survives
		}
	}
	stride, blk := pz.stride, k*pz.stride
	lo, hi, alo, ahi := pz.lo[:k], pz.hi[:k], pz.alo[:k], pz.ahi[:k]
	acc := pz.acc[:k]
	clear(acc)

	// capHi[j] is winner j's last capped count: from the next count
	// on, no rival's window reaches it.
	capHi := pz.capHi[:k]
	mLo, mHi := ell+1, -1
	for j := range k {
		top := -1
		for i := range k {
			if i != j {
				top = max(top, hi[i])
			}
		}
		capHi[j] = min(ahi[j], top)
		if alo[j] <= capHi[j] {
			mLo, mHi = min(mLo, alo[j]), max(mHi, capHi[j])
		}
	}
	// loPre[n] = Σ_{i<n} lo_i and maxLoPre[n] = max_{i<n} lo_i bound the
	// balls the rivals in a prefix must hold; maxLoSuf likewise for
	// suffixes; capPre[n] = Σ_{i<n} min(hi_i, m) bounds what they can.
	loPre, maxLoPre, maxLoSuf, capPre := pz.loPre[:k+1], pz.maxLoPre[:k+1], pz.maxLoSuf[:k+1], pz.capPre[:k+1]
	loPre[0], maxLoPre[0], maxLoSuf[k] = 0, 0, 0
	for i := range k {
		loPre[i+1] = loPre[i] + lo[i]
		maxLoPre[i+1] = max(maxLoPre[i], lo[i])
	}
	for i := k - 1; i >= 0; i-- {
		maxLoSuf[i] = max(maxLoSuf[i+1], lo[i])
	}
	sb := pz.sufBand[:k+1]
	pz.suf[k*blk] = 1 // G_k: no opinion placed
	sb[k] = band{0, 0, 0}
	for m := mLo; m <= mHi; m++ {
		jMin, jMax := k, -1
		for j := range k {
			if alo[j] <= m && m <= capHi[j] {
				jMin, jMax = min(jMin, j), max(jMax, j)
			}
		}
		if jMax < 0 {
			continue
		}
		R := ell - m
		capPre[0] = 0
		for i := range k {
			capPre[i+1] = capPre[i] + min(hi[i], m)
		}
		// Suffix G_n (opinions n…k−1) serves winners j < n, whose
		// rivals still to come are 0…n−1 without j; the winner's own
		// window reaches m, so it frees exactly m of the capacity.
		for n := k - 1; n > jMin; n-- {
			nLo := R - (capPre[n] - m)
			nHi := R - (loPre[n] - maxLoPre[n])
			sb[n] = pz.convolve(pz.suf[n*blk:(n+1)*blk], pz.suf[(n+1)*blk:(n+2)*blk], sb[n+1], n, m, nLo, nHi)
		}
		// Prefix F_n (opinions 0…n−1) serves winners j ≥ n, with the
		// rivals n…k−1 without j still to come.
		f, fNext := pz.pre[:blk], pz.pre[blk:2*blk]
		f[0] = 1 // F_0: no opinion placed
		fb := band{0, 0, 0}
		for n := 0; ; n++ {
			if alo[n] <= m && m <= capHi[n] {
				acc[n] += pz.row[n*stride+m] * pz.tieSum(f, fb, pz.suf[(n+1)*blk:(n+2)*blk], sb[n+1], R)
			}
			if n == jMax {
				break
			}
			capSuf := capPre[k] - capPre[n+1]
			loSuf := loPre[k] - loPre[n+1]
			fb = pz.convolve(fNext, f, fb, n, m, R-(capSuf-m), R-(loSuf-maxLoSuf[n+1]))
			f, fNext = fNext, f
		}
	}

	// Cap-free counts: H_j, the product of j's rival rows, over the
	// ball counts ℓ−m those counts need.
	for j := range k {
		mA, mB := max(alo[j], capHi[j]+1), ahi[j]
		if mA > mB {
			continue
		}
		xLo, xHi := ell-mB, ell-mA
		h, hNext := pz.pre[:blk], pz.pre[blk:2*blk]
		h[0] = 1
		hb := band{0, 0, 0}
		// Rivals after i hold loRest…hiRest balls between them.
		loRest, hiRest := -lo[j], -hi[j]
		for i := range k {
			loRest += lo[i]
			hiRest += hi[i]
		}
		for i := range k {
			if i == j {
				continue
			}
			loRest -= lo[i]
			hiRest -= hi[i]
			hb = pz.convolve(hNext, h, hb, i, ell+1, xLo-hiRest, xHi-loRest)
			h, hNext = hNext, h
		}
		row := pz.row[j*stride : (j+1)*stride]
		for m := mA; m <= mB; m++ {
			if x := ell - m; x >= hb.lo && x <= hb.hi {
				acc[j] += row[m] * h[x]
			}
		}
	}
	norm := poissonPMF(lf, ell, float64(ell))
	for j := range acc {
		r[j] = acc[j] / norm
	}
	return r, dropped
}

// poissonLaw holds evalPoisson's scratch. A block is k tie planes of
// ℓ+1 ball counts; plane t of a prefix or suffix holds the products in
// which t of its rivals tie the winning count.
type poissonLaw struct {
	stride int // ℓ+1
	// row[i·stride+a] = Pois(a; ℓq_i) over opinion i's window
	// [lo[i], hi[i]]; bin is one opinion's binomial marginal.
	row, bin []float64
	lo, hi   []int
	// [alo[i], ahi[i]] are the counts at which opinion i is an active
	// winner, and capHi[i] the last of them that some rival reaches.
	alo, ahi, capHi []int
	// Per-count bounds on the rivals' balls; see evalPoisson.
	loPre, maxLoPre, maxLoSuf, capPre []int
	acc                               []float64
	// pre holds two prefix blocks, reused for the cap-free products;
	// suf holds suffix block n at n·k·stride for n = 1…k, block k the
	// empty product, with its band in sufBand[n].
	pre, suf []float64
	sufBand  []band
}

// band is the extent of a prefix, suffix or cap-free block: ball
// counts lo…hi in tie planes 0…t. lo > hi is the empty block.
type band struct{ lo, hi, t int }

// ensure sizes the scratch for a (k, ℓ) evaluation, growing (never
// shrinking) the backing arrays so an evaluator amortizes to zero
// allocations. evalPoisson reads a row, plane or block only inside the
// window or band written in the same evaluation, so stale content from
// an earlier shape is never read.
func (pz *poissonLaw) ensure(k, ell int) {
	stride := ell + 1
	pz.stride = stride
	blk := k * stride
	if len(pz.row) < blk {
		pz.row = make([]float64, blk)
	}
	if len(pz.bin) < stride {
		pz.bin = make([]float64, stride)
	}
	if len(pz.pre) < 2*blk {
		pz.pre = make([]float64, 2*blk)
	}
	if len(pz.suf) < (k+1)*blk {
		pz.suf = make([]float64, (k+1)*blk)
	}
	if len(pz.lo) < k+1 {
		n := k + 1
		ints := make([]int, 9*n)
		pz.lo, pz.hi, pz.alo, pz.ahi, pz.capHi = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:5*n]
		pz.loPre, pz.maxLoPre, pz.maxLoSuf, pz.capPre = ints[5*n:6*n], ints[6*n:7*n], ints[7*n:8*n], ints[8*n:]
		pz.acc = make([]float64, n)
		pz.sufBand = make([]band, n)
	}
}

// setRow fills opinion i's window, Poisson row and active counts for
// one evaluation, p being its normalized share, and returns the row's
// pruned tail mass and the binomial mass of the counts ≥ floor inside
// the window that the mCut gate turns away. An empty window (a mode
// below cut, possible only when cut > 1/(ℓ+1)) is the whole row pruned.
func (pz *poissonLaw) setRow(lf []float64, i, ell int, p float64, floor int, mCut, cut float64) (tail, gated float64) {
	row := pz.row[i*pz.stride : (i+1)*pz.stride]
	pz.alo[i], pz.ahi[i] = 1, 0
	switch {
	case p <= 0:
		// Y_i = 0 surely: a rival holding no ball, never a winner.
		row[0] = 1
		pz.lo[i], pz.hi[i] = 0, 0
		return 0, 0
	case p >= 1:
		// Y_i = ℓ surely (the rest of q is zero).
		row[ell] = poissonPMF(lf, ell, float64(ell))
		pz.lo[i], pz.hi[i] = ell, ell
		if 1 < mCut {
			return 0, 1
		}
		pz.alo[i], pz.ahi[i] = ell, ell
		return 0, 0
	}
	b := pz.bin
	mode := min(int(float64(ell+1)*p), ell)
	center := binomPMF(lf, ell, mode, p, math.Log(p), math.Log1p(-p))
	if center < cut {
		pz.lo[i], pz.hi[i] = 1, 0
		return 1, 0
	}
	odds := p / (1 - p)
	b[mode] = center
	lo, hi := 0, ell
	v := center
	for a := mode - 1; a >= 0; a-- {
		// pmf(a) = pmf(a+1)·(a+1)/((ℓ−a)·odds)
		v *= float64(a+1) / (float64(ell-a) * odds)
		if v < cut {
			// The rest of the tail decreases; sum it until it
			// underflows.
			for aa := a; aa >= 0 && v > 0; aa-- {
				tail += v
				v *= float64(aa) / (float64(ell-aa+1) * odds)
			}
			lo = a + 1
			break
		}
		b[a] = v
	}
	v = center
	for a := mode + 1; a <= ell; a++ {
		// pmf(a) = pmf(a−1)·(ℓ−a+1)/a·odds
		v *= float64(ell-a+1) / float64(a) * odds
		if v < cut {
			for aa := a; aa <= ell && v > 0; aa++ {
				tail += v
				v *= float64(ell-aa) / float64(aa+1) * odds
			}
			hi = a - 1
			break
		}
		b[a] = v
	}
	// The counts with B ≥ mCut form one run around the mode.
	aLo, aHi := mode+1, mode
	if center >= mCut {
		aLo, aHi = mode, mode
		for aLo > lo && b[aLo-1] >= mCut {
			aLo--
		}
		for aHi < hi && b[aHi+1] >= mCut {
			aHi++
		}
	}
	for a := max(lo, floor); a <= hi; a++ {
		if a < aLo || a > aHi {
			gated += b[a]
		}
	}
	pz.lo[i], pz.hi[i] = lo, hi
	pz.alo[i], pz.ahi[i] = max(aLo, floor), aHi
	// The Poisson row from one saddle-point value and its two-term
	// recurrence, started at the Poisson mode (kept inside the window).
	lam := float64(ell) * p
	c := min(max(int(lam), lo), hi)
	v = poissonPMF(lf, c, lam)
	row[c] = v
	for a := c; a > lo; a-- {
		v = v * float64(a) / lam
		row[a-1] = v
	}
	v = row[c]
	for a := c; a < hi; a++ {
		v = v * lam / float64(a+1)
		row[a+1] = v
	}
	return tail, gated
}

// convolve sets dst to src times opinion i's row, the row cut above m:
// entries below m keep their tie plane, the a = m entry moves to the
// next one. Only ball counts in [nLo, nHi] are kept — the caller's
// bounds on what the rivals still to come can complete — and the
// returned band says what dst holds. m > ℓ leaves the row uncut and
// tie-free.
func (pz *poissonLaw) convolve(dst, src []float64, sb band, i, m, nLo, nHi int) band {
	stride := pz.stride
	lo, hi := pz.lo[i], pz.hi[i]
	nLo = max(nLo, sb.lo+lo)
	nHi = min(nHi, sb.hi+min(hi, m))
	if sb.lo > sb.hi || lo > m || nLo > nHi {
		return band{1, 0, 0}
	}
	row := pz.row[i*stride : (i+1)*stride]
	tie := m <= hi
	top := min(hi, m-1)
	t := sb.t
	if tie {
		t++
	}
	for p := 0; p <= t; p++ {
		clear(dst[p*stride+nLo : p*stride+nHi+1])
	}
	for p := 0; p <= sb.t; p++ {
		from := src[p*stride : (p+1)*stride]
		to := dst[p*stride : (p+1)*stride]
		for c := sb.lo; c <= sb.hi; c++ {
			v := from[c]
			if v == 0 {
				continue
			}
			if aLo, aHi := max(lo, nLo-c), min(top, nHi-c); aLo <= aHi {
				x := row[aLo : aHi+1]
				y := to[c+aLo : c+aHi+1]
				y = y[:len(x)]
				for a, w := range x {
					y[a] += v * w
				}
			}
			if tie {
				if b := c + m; b >= nLo && b <= nHi {
					dst[(p+1)*stride+b] += v * row[m]
				}
			}
		}
	}
	return band{nLo, nHi, t}
}

// tieSum returns Σ_{b,t,u} F(b,t)·G(R−b,u)/(t+u+1): a winner's rival
// sum at R rival balls from its prefix F and suffix G, each of the
// t + u tied rivals taking an equal share of the tie-break.
func (pz *poissonLaw) tieSum(f []float64, fb band, g []float64, gb band, R int) float64 {
	stride := pz.stride
	lo, hi := max(fb.lo, R-gb.hi), min(fb.hi, R-gb.lo)
	if fb.lo > fb.hi || gb.lo > gb.hi || lo > hi {
		return 0
	}
	sum := 0.0
	for t := 0; t <= fb.t; t++ {
		x := f[t*stride+lo : t*stride+hi+1]
		for u := 0; u <= gb.t; u++ {
			// y[n−1−a] = G(R−lo−a, u): the suffix read backwards.
			y := g[u*stride+R-hi : u*stride+R-lo+1]
			y = y[:len(x)]
			n := len(y)
			d := 0.0
			for a, w := range x {
				d += w * y[n-1-a]
			}
			sum += d / float64(t+u+1)
		}
	}
	return sum
}

// lnSqrt2Pi is ln √(2π).
const lnSqrt2Pi = 0.918938533204672741780329736406

// poissonPMF returns Pois(x; λ) for λ > 0 in the saddle-point form of
// Loader, "Fast and Accurate Computation of Binomial Probabilities"
// (2000): ln Pois(x; λ) = −stirlerr(x) − bd0(x, λ) − ½ln(2πx). Neither
// term carries the cancellation of the plain −λ + x ln λ − ln x!, whose
// rounding grows with x: through the normaliser Pois(ℓ; ℓ) it put Σr
// 7·10⁻¹³ above 1 at ℓ = 665 and 8·10⁻¹² above 1 at ℓ = 3000.
func poissonPMF(lf []float64, x int, lam float64) float64 {
	if x == 0 {
		return math.Exp(-lam)
	}
	fx := float64(x)
	return math.Exp(-stirlerr(lf, x)-bd0(fx, lam)) / math.Sqrt(2*math.Pi*fx)
}

// stirlerr returns ln x! − (x + ½)ln x + x − ln √(2π), the error of
// Stirling's formula, from the ln Γ table for x ≤ 15 and from its
// asymptotic series (Loader's truncation points) above.
func stirlerr(lf []float64, x int) float64 {
	fx := float64(x)
	if x <= 15 {
		return lf[x] - (fx+0.5)*math.Log(fx) + fx - lnSqrt2Pi
	}
	const (
		s0 = 1.0 / 12
		s1 = 1.0 / 360
		s2 = 1.0 / 1260
		s3 = 1.0 / 1680
		s4 = 1.0 / 1188
	)
	xx := fx * fx
	switch {
	case x > 500:
		return (s0 - s1/xx) / fx
	case x > 80:
		return (s0 - (s1-s2/xx)/xx) / fx
	case x > 35:
		return (s0 - (s1-(s2-s3/xx)/xx)/xx) / fx
	}
	return (s0 - (s1-(s2-(s3-s4/xx)/xx)/xx)/xx) / fx
}

// bd0 returns x ln(x/λ) + λ − x, the deviance term of the saddle-point
// form, by its series in v = (x−λ)/(x+λ) when x is near λ, where the
// closed form cancels.
func bd0(x, lam float64) float64 {
	if math.Abs(x-lam) < 0.1*(x+lam) {
		v := (x - lam) / (x + lam)
		s := (x - lam) * v
		ej := 2 * x * v
		v *= v
		for j := 1; j < 1000; j++ {
			ej *= v
			next := s + ej/float64(2*j+1)
			if next == s {
				return s
			}
			s = next
		}
		return s
	}
	return x*math.Log(x/lam) + lam - x
}

// evalBinary is the k = 2 path. The single rival absorbs every ball
// the winner leaves, so the law is one row, Binomial(ℓ, p) with
// p = q₀/(q₀+q₁), of opinion 0's count m: opinion 0 wins at 2m > ℓ,
// opinion 1 at 2m < ℓ, and at 2m = ℓ the two tie, broken u.a.r. The
// row is evaluated once at its mode (binomSaddle) and extended by the
// two-term recurrence in both directions until it underflows, so an
// evaluation takes one Exp. An entry below mCut is
// dropped, whichever opinion it would elect: the rival DP's count cut.
// Each entry is classified once, so a dropped tie is charged once,
// where the DP charges it once per winner. The law is pinned to an
// exact evaluation of the row (TestBinaryLawMatchesExactTail) and to
// the rival DP within the two dropped masses.
func (ev *lawEvaluator) evalBinary(q []float64, ell int, mCut float64, r []float64) ([]float64, float64) {
	s := q[0] + q[1]
	p, pc := q[0]/s, q[1]/s
	odds := q[0] / q[1]
	mode := min(int(float64(ell+1)*p), ell)
	center := binomSaddle(lfact(), ell, mode, p, pc)
	// won[c+1] sums the kept entries m with c = sign(2m − ℓ): opinion
	// 1's wins, the tie, opinion 0's wins.
	var won [3]float64
	dropped := 0.0
	credit := func(m int, v float64) {
		if v < mCut {
			dropped += v
		} else {
			won[cmp.Compare(2*m, ell)+1] += v
		}
	}
	credit(mode, center)
	v := center
	for m := mode - 1; m >= 0 && v > 0; m-- {
		// pmf(m) = pmf(m+1)·(m+1)/((ℓ−m)·odds)
		v *= float64(m+1) / (float64(ell-m) * odds)
		credit(m, v)
	}
	v = center
	for m := mode + 1; m <= ell && v > 0; m++ {
		// pmf(m) = pmf(m−1)·(ℓ−m+1)/m·odds
		v *= float64(ell-m+1) / float64(m) * odds
		credit(m, v)
	}
	r[0] = won[2] + won[1]/2
	r[1] = won[0] + won[1]/2
	return r, dropped
}

// binomSaddle returns Pr(Binomial(n, p) = x), p + pc = 1, in Loader's
// saddle-point form, the binomial counterpart of poissonPMF: with
// λ = np and μ = n·pc it is Pois(x; λ)·Pois(n−x; μ) ÷ Pois(n; n), so
//
//	ln = stirlerr(n) − stirlerr(x) − stirlerr(n−x) − bd0(x, λ) − bd0(n−x, μ) − ½ln(2πx(n−x)/n),
//
// and e^(−λ)·e^(−bd0(n, μ)) at x = 0 (e^(−μ)·e^(−bd0(n, λ)) at x = n).
// No term is of order ln n!, so the rounding does not grow with n:
// binomPMF's ln Γ differences put ulp(ln 4001!) ≈ 4·10⁻¹² of relative
// error into the row's centre at ℓ = 4001, and the recurrence carries
// it into every entry.
func binomSaddle(lf []float64, n, x int, p, pc float64) float64 {
	fn, fx := float64(n), float64(x)
	lam, mu := fn*p, fn*pc
	switch x {
	case 0:
		return math.Exp(-lam - bd0(fn, mu))
	case n:
		return math.Exp(-mu - bd0(fn, lam))
	}
	fy := fn - fx
	lc := stirlerr(lf, n) - stirlerr(lf, x) - stirlerr(lf, n-x) - bd0(fx, lam) - bd0(fy, mu)
	return math.Exp(lc) * math.Sqrt(fn/(2*math.Pi*fx*fy))
}

// survivalSlots sizes survivalMemo. A census run meets few distinct
// Stage-2 update probabilities: once Stage 1 has reached every node,
// each phase delivers 2ℓ messages per node and Λ comes out as the same
// float64 phase after phase, so a worker sees about one (Λ, ℓ) per
// distinct ℓ and ℓ′ of its points. The benchmark's workloads meet 5 to
// 8 per run.
const survivalSlots = 8

// survivalMemo memoizes dist.PoissonSurvival(λ, ℓ), the Stage-2 update
// probability Pr(Poisson(Λ) ≥ ℓ), over the last survivalSlots distinct
// keys, replacing the oldest on a miss. The key is λ's exact bits and
// ℓ, and the function is pure, so a hit returns the very value a call
// would: the memo needs no invalidation and cannot change a result.
// The zero value is empty; a slot with ell 0 is unused, which the
// Stage-2 phases (ℓ ≥ 1) never ask for.
type survivalMemo struct {
	lambda [survivalSlots]uint64 // math.Float64bits(λ)
	ell    [survivalSlots]int64
	p      [survivalSlots]float64
	next   int // slot the next miss overwrites
}

// survival returns dist.PoissonSurvival(lambda, ell) for ell ≥ 1.
func (m *survivalMemo) survival(lambda float64, ell int64) float64 {
	bits := math.Float64bits(lambda)
	for i := range m.ell {
		if m.ell[i] == ell && m.lambda[i] == bits {
			return m.p[i]
		}
	}
	p := dist.PoissonSurvival(lambda, ell)
	i := m.next
	m.lambda[i], m.ell[i], m.p[i] = bits, ell, p
	m.next = (i + 1) % survivalSlots
	return p
}
