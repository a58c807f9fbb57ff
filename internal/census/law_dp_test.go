package census

// This file holds the general winner×count rival DP (evalGeneral,
// winProb and their tie-major f/g scratch) on the production
// majorityDP's setWinner and binomRow. It is the reference the law is
// tested against: the k = 3 and point-mass fast paths must match it bit
// for bit, r and dropped alike, and the k = 2 row walk and the k ≥ 4
// Poissonized path within the two evaluations' dropped masses. Its own
// r is pinned bit for bit to the older frozen evaluator of
// law_ref_test.go.

import "math"

// dpLawEvaluator is the general rival DP with its scratch: the
// production majorityDP for the per-winner conditionals and rival rows,
// and the two DP layers.
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
