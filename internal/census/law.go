package census

import (
	"fmt"
	"math"
	"sync"

	"github.com/gossipkit/noisyrumor/internal/dist"
)

// Stage1Law returns the exact phase-end law of one undecided node
// under process P (Definition 4), given the phase's noisy message
// multiset expressed as per-opinion Poisson rates lambda[j] = g_j/n:
// adopt[j] is the probability of ending the phase with opinion j and
// stay the probability of remaining undecided.
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
func Stage1Law(lambda []float64) (adopt []float64, stay float64) {
	total := 0.0
	for j, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			panic(fmt.Sprintf("census: Stage1Law with lambda[%d]=%v", j, l))
		}
		total += l
	}
	adopt = make([]float64, len(lambda))
	if total == 0 {
		return adopt, 1
	}
	stay = math.Exp(-total)
	hit := -math.Expm1(-total) // 1 − e^(−Λ) without cancellation
	for j, l := range lambda {
		adopt[j] = l / total * hit
	}
	return adopt, stay
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
// The evaluation sums over received-count profiles in factored form.
// For each candidate winner j and winning count m, Pr(Y_j = m) is a
// binomial term; conditional on it the rival profile is
// Multinomial(ell−m, q_{−j}/(1−q_j)), scanned by a dynamic program
// over rival opinions tracking (balls placed, rivals tied at m), all
// placed counts ≤ m; a terminal state with t ties contributes its
// mass/(t+1), the uniform tie-break. Sure losses are neither won nor
// dropped: a winning count m < ⌈ℓ/k⌉ is skipped outright (the rivals
// then hold more than m(k−1) balls), and a rival window starts at the
// count below which the rivals still to come would have to hold more
// than m each. Truncation — all of it accounted into dropped — happens
// at three sites: winning counts m with binomial mass below
// tol/(4(ℓ+1)), DP states below an analogous cut, and per-rival count
// windows pruned below the cut. The cost is independent of n and,
// once the windows bind, scales with the binomial standard deviations
// rather than ℓ²; analytic.MajProbs (an exhaustive enumeration) is the
// cross-check oracle at small ℓ.
//
// Three fast paths skip the general rival DP while producing
// bit-identical r and dropped (pinned by TestFastPathsBitIdenticalToDP
// and FuzzMajorityLaw): a point-mass q (the consensus endgame, where
// most phases of a winning trial live) collapses to r = q in O(k);
// k = 2 reduces to the plain binomial tail of
// TestMajorityLawBinomialIdentity, truncation sites and sure-loss
// floor included; and k = 3 sums the first rival's window in one
// ascending pass. That pass is exact because the DP's root state has
// mass exactly 1, so its next layer holds the window itself
// (0 + 1·w = w), and the last rival only absorbs: a window entry a
// ends with t = [a = m] + [ℓ−m−a = m] ties, and the DP's absorbing
// layer adds the entries of each tie class into one cell in the same
// ascending order.
//
// Every binomial term — each winning-count pmf and the centre of each
// rival window — comes from binomPMF, one table-driven kernel (ln Γ
// read from a lazily built table, fetched once per evaluation, ln p
// and ln(1−p) hoisted per winner or rival) that reproduces
// dist.BinomialPMF bit for bit and that the quantization certificate
// shares. The rival conditionals are computed once per winner, and so
// is each rival row's centre whose mode the winning count does not
// cap, memoized per (rival, remaining balls).
// The DP scratch is tie-major, so one rival window is one contiguous
// multiply-add, and each DP layer scans and clears only the band of
// ball counts that can hold mass. None of this changes a float of r
// or its summation order: FuzzMajorityLaw pins r bit for bit against
// a frozen copy of the evaluator as it stood before these steps
// (law_ref_test.go), and dropped to at most that copy's — it charged
// sure losses too.
//
// MajorityLaw allocates its result and scratch; hot paths hold a
// lawEvaluator and call eval, which reuses both.
func MajorityLaw(q []float64, ell int, tol float64) ([]float64, float64) {
	var ev lawEvaluator
	return ev.eval(q, ell, tol)
}

// lawEvaluator owns the reusable buffers of a MajorityLaw evaluation:
// the result vector and the rival-scan DP scratch. The zero value is
// ready to use; after the first eval, further calls at the same (or
// smaller) k and ℓ allocate nothing. The slice returned by eval is
// owned by the evaluator and valid until the next eval call.
type lawEvaluator struct {
	r  []float64
	dp majorityDP
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
	return ev.evalGeneral(q, ell, mCut, stateCut, r)
}

// evalGeneral is the winner×count binomial factoring with the rival
// DP — the path every k ≥ 4 non-degenerate pool takes, and the
// reference the fast paths are pinned bit-identical against. Winning
// counts below ⌈ℓ/k⌉ are skipped outright: the k−1 rivals then hold
// ℓ−m > m(k−1) balls, so one of them beats m — a sure loss, which is
// neither won nor truncated.
func (ev *lawEvaluator) evalGeneral(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	k := len(q)
	dropped := 0.0
	dp := &ev.dp
	dp.ensure(k, ell)
	lf := lfact()
	for j := 0; j < k; j++ {
		p := q[j]
		if p == 0 {
			// Y_j = 0 surely; with ℓ ≥ 1 some rival holds a ball, so
			// j can neither win nor tie for the maximum.
			continue
		}
		lp, lq := math.Log(p), math.Log1p(-p)
		dp.setWinner(q, j)
		for m := (ell + k - 1) / k; m <= ell; m++ {
			pm := binomPMF(lf, ell, m, p, lp, lq)
			if pm == 0 {
				continue
			}
			if pm < mCut {
				dropped += pm
				continue
			}
			win, dpDropped := dp.winProb(m, stateCut)
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
// TestMajorityLawBinomialIdentity. The count loop starts at the same
// sure-loss floor ⌈ℓ/2⌉ as evalGeneral's, and every branch mirrors a
// winProb branch (the balls == 0 early return) with the same float
// arithmetic, so the path is bit-identical to the DP at any tolerance.
// winProb's prune of its unit root state needs no mirror: it bites only
// when the state cut exceeds 1, and then the count cut, k times larger,
// exceeds every pm, so no count reaches it.
func (ev *lawEvaluator) evalBinary(q []float64, ell int, mCut float64, r []float64) ([]float64, float64) {
	dropped := 0.0
	lf := lfact()
	for j := 0; j < 2; j++ {
		p := q[j]
		if p == 0 {
			continue
		}
		lp, lq := math.Log(p), math.Log1p(-p)
		for m := (ell + 1) / 2; m <= ell; m++ {
			pm := binomPMF(lf, ell, m, p, lp, lq)
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
			case balls == m:
				r[j] += pm * 0.5 // two-way tie, broken u.a.r.
			default:
				r[j] += pm // strict win
			}
		}
	}
	return r, dropped
}

// evalTernary is the k = 3 fast path: evalGeneral's count loop with
// winProb replaced by one ascending pass over the first rival's
// window, bit-identical to the DP. winProb's root state has mass
// exactly 1, so its next layer holds the window itself (0 + 1·w = w)
// and its pruned mass is the row's own. The second rival absorbs the
// R − a balls the first leaves, so window entry a ends with
// t = [a = m] + [R − a = m] ties, and winProb's absorbing layer adds
// the entries of each tie class into one cell in ascending a, pruning
// none (every entry is ≥ the cut). The pass sums each class in the
// same order and returns winProb's terminal c₀ + c₁/2 + c₂/3, where an
// empty class adds nothing either way. At R = 0 binomRow's unit row
// makes this a strict win.
func (ev *lawEvaluator) evalTernary(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	dropped := 0.0
	dp := &ev.dp
	dp.ensure(3, ell)
	lf := lfact()
	for j := 0; j < 3; j++ {
		p := q[j]
		if p == 0 {
			continue
		}
		lp, lq := math.Log(p), math.Log1p(-p)
		dp.setWinner(q, j)
		for m := (ell + 2) / 3; m <= ell; m++ {
			pm := binomPMF(lf, ell, m, p, lp, lq)
			if pm == 0 {
				continue
			}
			if pm < mCut {
				dropped += pm
				continue
			}
			R := ell - m
			lo, hi, pruned := dp.binomRow(0, R, max(0, R-m), min(m, R), stateCut)
			var c0, c1, c2 float64 // window mass by ties with the winner
			for a := lo; a <= hi; a++ {
				switch w := dp.pmf[a]; {
				case a != m && R-a != m:
					c0 += w
				case a == m && R-a == m:
					c2 += w
				default:
					c1 += w
				}
			}
			r[j] += pm * (c0 + c1/2 + c2/3)
			dropped += pm * pruned
		}
	}
	return r, dropped
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

// majorityDP holds the scratch buffers of the rival-profile scan so
// one phase's O(k·window) winProb calls do not allocate.
type majorityDP struct {
	k   int
	ell int
	// f and g are the current and next DP layer, tie-major: the state
	// (balls placed b, rivals tied with the winner t) sits at
	// t·(ℓ+1)+b, so one rival window lands on a contiguous run of g.
	f, g []float64
	pmf  []float64 // per-(state,rival) binomial row
	// The current winner's rival conditionals, in opinion order:
	// pc[s] is rival s's share of the mass the rivals before it left,
	// lpc[s] and lqc[s] its logs for binomPMF.
	pc, lpc, lqc []float64
	// center[s·(ℓ+1)+R] memoizes rival s's uncapped row centre
	// Pr(Binomial(R, pc[s]) = mode), which depends on the winner but
	// not on its count; negative means not yet computed.
	center []float64
}

// ensure sizes the scratch for a (k, ℓ) evaluation, growing (never
// shrinking) the backing arrays so an evaluator amortizes to zero
// allocations. f and g are all-zero between winProb calls — winProb
// clears exactly the rows it touched before returning — binomRow's
// window is fully rewritten before use, and setWinner resets the
// centre memo, so no stale content can leak into a later shape.
func (dp *majorityDP) ensure(k, ell int) {
	dp.k, dp.ell = k, ell
	if need := (ell + 1) * k; len(dp.f) < need {
		dp.f = make([]float64, need)
		dp.g = make([]float64, need)
		dp.center = make([]float64, need)
	}
	if len(dp.pmf) < ell+1 {
		dp.pmf = make([]float64, ell+1)
	}
	if len(dp.pc) < k {
		c := make([]float64, 3*k)
		dp.pc, dp.lpc, dp.lqc = c[:k], c[k:2*k], c[2*k:]
	}
}

// setWinner fixes candidate winner j for the winProb calls that
// follow. Conditional on Y_j the rival profile is Multinomial(·,
// q_{−j}/(1−q_j)), factored into sequential conditional binomials in
// opinion order; their success probabilities depend on j alone, not
// on the winning count, so they are computed here once per winner,
// and the row centres memoized under the previous winner are void.
func (dp *majorityDP) setWinner(q []float64, j int) {
	remMass := 1 - q[j]
	s := 0
	for i, qi := range q {
		if i == j {
			continue
		}
		pc := 0.0
		if remMass > 0 {
			pc = qi / remMass
			if pc > 1 {
				pc = 1
			}
		}
		remMass -= qi
		dp.pc[s], dp.lpc[s], dp.lqc[s] = pc, math.Log(pc), math.Log1p(-pc)
		s++
	}
	center := dp.center[:(dp.k-1)*(dp.ell+1)]
	for i := range center {
		center[i] = -1
	}
}

// winProb returns Pr(maj = j | Y_j = m) for Y ~ Multinomial(ell, q)
// (ties u.a.r.), j the winner fixed by setWinner, together with the
// conditional probability mass it pruned below cut. Each DP layer
// tracks the band [bLo, bHi] of ball counts that can hold mass and
// scans, and afterwards clears, only that band; after s rivals at
// most s ties exist, so a row's scan stops at t = s. A state whose
// remaining R balls exceed m times the rivals still to come is a sure
// loss — some rival must beat m — so it is never created: binomRow
// starts each window at that floor. Rows, ties and sure losses
// outside those bounds only ever feed zeros or other sure losses, so
// skipping them changes no float of the win and no summation order.
func (dp *majorityDP) winProb(m int, cut float64) (float64, float64) {
	k := dp.k
	balls := dp.ell - m // rival balls to place
	// No rival balls: every rival sits at 0 < m — a strict win.
	if balls == 0 {
		return 1, 0
	}
	rivals := k - 1
	if balls > m*rivals {
		// A sure loss at the root. evalGeneral's count floor never
		// asks for one; binomRow's floor ≤ amax relies on its absence.
		return 0, 0
	}
	stride := dp.ell + 1
	f, g := dp.f, dp.g
	f[0] = 1 // ballsPlaced=0, ties=0
	bLo, bHi := 0, 0
	pruned := 0.0
	for s := 0; s < rivals; s++ {
		after := rivals - 1 - s // rivals still to place after this one
		gLo, gHi := balls+1, -1
		for b := bLo; b <= bHi; b++ {
			R := balls - b
			lo, hi := 0, -1
			rowPruned := 0.0
			windowReady := false
			for t := 0; t <= s; t++ {
				v := f[t*stride+b]
				if v == 0 {
					continue
				}
				if v < cut {
					pruned += v
					continue
				}
				if after == 0 {
					// The final rival absorbs the remaining R ≤ m balls
					// exactly (its conditional success probability is
					// 1), tying the winner at R = m.
					ti := t
					if R == m {
						ti++
					}
					g[ti*stride+balls] += v
					gLo, gHi = balls, balls
					continue
				}
				if !windowReady {
					lo, hi, rowPruned = dp.binomRow(s, R, max(0, R-m*after), min(m, R), cut)
					windowReady = true
					if lo <= hi {
						gLo = min(gLo, b+lo)
						gHi = max(gHi, b+hi)
					}
				}
				pruned += v * rowPruned
				if lo > hi {
					continue
				}
				// a = m ties the winner, so that term lands in plane
				// t+1; the rest of the window is one contiguous update
				// of plane t. Every destination still receives its
				// terms in ascending b, so no sum is reordered.
				top := hi
				if hi == m {
					top--
					g[(t+1)*stride+b+m] += v * dp.pmf[m]
				}
				x := dp.pmf[lo : top+1]
				y := g[t*stride+b+lo : t*stride+b+top+1]
				y = y[:len(x)]
				for i, w := range x {
					y[i] += v * w
				}
			}
		}
		if bLo <= bHi {
			for t := 0; t <= s; t++ {
				clear(f[t*stride+bLo : t*stride+bHi+1])
			}
		}
		f, g = g, f
		bLo, bHi = gLo, gHi
	}
	win := 0.0
	for t := 0; t < k; t++ {
		if v := f[t*stride+balls]; v != 0 {
			win += v / float64(t+1)
		}
	}
	if bLo <= bHi {
		for t := 0; t < k; t++ {
			clear(f[t*stride+bLo : t*stride+bHi+1])
		}
	}
	return win, pruned
}

// binomRow fills dp.pmf[a] = Pr(Binomial(R, pc[s]) = a) for a in the
// returned contiguous window [lo, hi] ⊆ [floor, amax] of entries ≥ cut,
// and returns the pruned mass: the PMF total over [floor, amax]
// outside the window. Mass above amax (a rival count exceeding the
// candidate winner) and below floor (too many balls left for the
// rivals after s) is deliberately not included — those profiles are
// sure losses for the winner, not truncation error. The PMF is
// evaluated once at the in-range mode (binomPMF, memoized per (s, R)
// when the mode is not capped at amax) and extended by its two-term
// recurrence, so a call costs O(amax−floor) with at most one Exp.
func (dp *majorityDP) binomRow(s, R, floor, amax int, cut float64) (lo, hi int, pruned float64) {
	p := dp.pc[s]
	if p <= 0 {
		if floor > 0 {
			return 0, -1, 0 // all mass at a = 0 < floor: a sure loss
		}
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
	var center float64
	if mode > amax {
		mode = amax
		center = binomPMF(lfact(), R, mode, p, dp.lpc[s], dp.lqc[s])
	} else {
		c := &dp.center[s*(dp.ell+1)+R]
		if *c < 0 {
			*c = binomPMF(lfact(), R, mode, p, dp.lpc[s], dp.lqc[s])
		}
		center = *c
	}
	if center < cut {
		// The entire range is below the cut. Its true mass over
		// [floor, amax] is bounded by the unimodal envelope: each of
		// its terms is ≤ center.
		return 0, -1, float64(amax-floor+1) * center
	}
	odds := p / (1 - p)
	dp.pmf[mode] = center
	lo = floor
	v := center
	for a := mode - 1; a >= floor; a-- {
		// pmf(a) = pmf(a+1)·(a+1)/((R−a)·odds)
		v *= float64(a+1) / (float64(R-a) * odds)
		if v < cut {
			// The remaining lower tail is monotone decreasing; sum
			// what the recurrence yields down to the floor until it
			// underflows.
			for aa := a; aa >= floor && v > 0; aa-- {
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
				if aa >= floor {
					pruned += v
				}
				v *= float64(R-aa) / float64(aa+1) * odds
			}
			hi = a - 1
			break
		}
		dp.pmf[a] = v
	}
	return lo, hi, pruned
}
