package census

// This file holds the general winner×count rival DP (evalGeneral,
// winProb and their tie-major f/g scratch) with its per-winner
// conditionals (setWinner) and rival rows (binomRow), which no
// production path shares: every term but the count pmf, binomPMF, is
// its own. It is the reference the law is tested against: the
// point-mass fast path must match it bit for bit, r and dropped alike,
// and the k = 2 row walk, the k = 3 walk and the k ≥ 4 Poissonized path
// within the two evaluations' dropped masses. Its own r is pinned bit
// for bit to the older frozen evaluator of law_ref_test.go.

import "math"

// dpLawEvaluator is the general rival DP with its scratch: majorityDP
// for the per-winner conditionals and rival rows, and the two DP
// layers.
type dpLawEvaluator struct {
	dp majorityDP
	// f and g are the current and next DP layer, tie-major: the state
	// (balls placed b, rivals tied with the winner t) sits at
	// t·(ℓ+1)+b, so one rival window lands on a contiguous run of g.
	f, g []float64
}

// dpLaw is MajorityLaw through the general rival DP alone, past every
// fast path: the reference the production law is pinned against.
func dpLaw(q []float64, ell int, tol float64) ([]float64, float64) {
	var ev dpLawEvaluator
	k := len(q)
	mCut := tol / (4 * float64(ell+1))
	stateCut := tol / (4 * float64(ell+1) * float64(k))
	return ev.evalGeneral(q, ell, mCut, stateCut, make([]float64, k))
}

// evalGeneral is the winner×count binomial factoring with the rival
// DP. Winning counts below ⌈ℓ/k⌉ are skipped outright: the k−1 rivals
// then hold ℓ−m > m(k−1) balls, so one of them beats m — a sure loss,
// which is neither won nor truncated.
func (ev *dpLawEvaluator) evalGeneral(q []float64, ell int, mCut, stateCut float64, r []float64) ([]float64, float64) {
	k := len(q)
	dropped := 0.0
	dp := &ev.dp
	dp.ensure(k, ell)
	if need := (ell + 1) * k; len(ev.f) < need {
		ev.f = make([]float64, need)
		ev.g = make([]float64, need)
	}
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
			win, dpDropped := ev.winProb(m, stateCut)
			r[j] += pm * win
			dropped += pm * dpDropped
		}
	}
	return r, dropped
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
func (ev *dpLawEvaluator) winProb(m int, cut float64) (float64, float64) {
	dp := &ev.dp
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
	f, g := ev.f, ev.g
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

// majorityDP holds the rival DP's per-winner scratch: the current
// winner's rival conditionals and one rival's binomial window.
type majorityDP struct {
	// k and ell are the shape ensure last sized the scratch for; winProb
	// reads them.
	k   int
	ell int
	pmf []float64 // one rival's binomial window
	// The current winner's rival conditionals, in opinion order:
	// pc[s] is rival s's share of the mass the rivals before it left,
	// lpc[s] and lqc[s] its logs for binomPMF.
	pc, lpc, lqc []float64
}

// ensure sizes the scratch for a (k, ℓ) evaluation, growing (never
// shrinking) the backing arrays so an evaluator amortizes to zero
// allocations. binomRow's window is fully rewritten before use and
// setWinner rewrites every conditional, so no stale content can leak
// into a later shape.
func (dp *majorityDP) ensure(k, ell int) {
	dp.k, dp.ell = k, ell
	if len(dp.pmf) < ell+1 {
		dp.pmf = make([]float64, ell+1)
	}
	if len(dp.pc) < k {
		c := make([]float64, 3*k)
		dp.pc, dp.lpc, dp.lqc = c[:k], c[k:2*k], c[2*k:]
	}
}

// setWinner fixes candidate winner j for the binomRow calls that
// follow. Conditional on Y_j the rival profile is Multinomial(·,
// q_{−j}/(1−q_j)), factored into sequential conditional binomials in
// opinion order; their success probabilities depend on j alone, not
// on the winning count, so they are computed here once per winner.
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
}

// binomRow fills dp.pmf[a] = Pr(Binomial(R, pc[s]) = a) for a in the
// returned contiguous window [lo, hi] ⊆ [floor, amax] of entries ≥ cut,
// and returns the pruned mass: the PMF total over [floor, amax]
// outside the window. Mass above amax (a rival count exceeding the
// candidate winner) and below floor (too many balls left for the
// rivals after s) is deliberately not included — those profiles are
// sure losses for the winner, not truncation error. The PMF is
// evaluated once at the in-range mode (binomPMF) and extended by its
// two-term recurrence, so a call costs O(amax−floor) with one Exp.
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
	mode := min(int(float64(R+1)*p), amax)
	center := binomPMF(lfact(), R, mode, p, dp.lpc[s], dp.lqc[s])
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
