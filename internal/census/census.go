// Package census is the aggregate opinion-census engine: it simulates
// the two-stage protocol's phase dynamics under process P
// (Poissonization, Definition 4 of the paper) directly on the
// k-dimensional opinion census (c₁,…,c_k, undecided), with per-phase
// cost independent of the population size n.
//
// Why this is possible: under process P every node's phase-end
// outcome is, conditionally on the phase's noisy message multiset,
// independent and identically distributed within its opinion class —
// node u receives independent Poisson(g_j/n) messages of each opinion
// j and applies a local update rule to them. The census is therefore
// itself a Markov chain: one phase is (1) the noise multinomial split
// of the sent multiset (exactly as the batch backend's noise step),
// (2) an evaluation of each class's phase-end adoption distribution
// p_{i→·} from the split (law.go), and (3) one exact
// multinomial(c_i; p_{i→·}) draw per class. Total cost is
// O(k² + k·poly(window)) per phase — no per-node state, no Ω(n) inner
// loop — which is what opens n ≥ 10⁹ (and far beyond) sweeps.
//
// The adoption distributions decompose per stage:
//
//   - Stage 1 (u.a.r.-received adoption): only undecided nodes update;
//     the adoption law has the exact closed form of stage1Law, so the
//     stage-1 census transition is an exact sample of process P's
//     census law.
//   - Stage 2 (ℓ-subsample majority): a node updates iff it received
//     S ≥ ℓ messages (S ~ Poisson(Λ), Λ = Σg_j/n — dist.PoissonSurvival),
//     and conditional on updating adopts maj of a uniform ℓ-subsample.
//     Because an ℓ-subsample without replacement of an s-element
//     multiset whose composition is Multinomial(s, q) has composition
//     Multinomial(ℓ, q) regardless of s, the update law is
//     MajorityLaw(q, ℓ) for every class — evaluated by truncated
//     summation over received-count profiles with every dropped
//     term's mass accounted.
//
// Exactness contract: the engine samples process P's census chain
// exactly except for the Stage-2 truncation — and, when enabled via
// SetLawQuant, the Stage-2 q-quantization, whose per-phase law-level
// certificate min(1, ℓ·d_TV(q, q̂)·sens) is charged the same way —
// with the accumulated total-variation mass exposed as
// Engine.ErrorBudget: the
// same currency as the paper's Lemma-3 coupling argument, which
// transfers w.h.p. events from P to the real process O at an additive
// probability cost. A caller comparing census sweeps against process
// O owes Lemma 3's budget; comparing against process P owes only
// ErrorBudget. At the default tolerance the budget is bounded by
// ~20 phases × n × 10⁻¹³ ≈ 2·10⁻³ for an n = 10⁹ sweep; realized
// truncation sits far inside the per-phase tolerance, so the measured
// budget is ≈ 10⁻⁵ (see DESIGN.md §2 and E20).
//
// Determinism: a run is a pure function of the engine's rng stream
// (hence of the seed). Draws happen in a fixed serial order — noise
// split rows in opinion order, then one transition multinomial per
// class in opinion order, undecided last. Census runs consume the
// stream differently from every per-node backend, so they are
// statistically equivalent to per-node process-P runs (pinned by
// chi-square tests), not bitwise equal.
//
// The package declares the nrlint determinism contract: results are
// a pure function of (spec, seed) at any worker count, enforced by
// `make lint` (see DESIGN.md "Statically enforced contracts").
//
//nrlint:deterministic
package census

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/checked"
	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// DefaultTolerance is the per-phase Stage-2 truncation tolerance: the
// targeted per-node total-variation gap between the sampled and exact
// adoption laws. The engine's ErrorBudget accumulates n times the
// realized (accounted, conservative) gap per phase, so the default
// bounds a full n = 10⁹ sweep's budget by ≈ 2·10⁻³ in the worst case;
// because the realized gap stays far inside the tolerance, measured
// sweeps come in around 10⁻⁵.
const DefaultTolerance = 1e-13

// Engine advances the opinion census of process P phase by phase. It
// is not safe for concurrent use; the experiment harness runs one
// engine per trial goroutine.
type Engine struct {
	n       int64
	k       int
	nm      *noise.Matrix
	noisy   bool
	r       *rng.Rand
	counts  []int64 // census: nodes currently holding each opinion
	und     int64   // undecided nodes
	tol     float64
	quant   float64 // Stage-2 law quantization step η (0 = exact)
	budget  float64
	qbudget float64   // quantization leg of budget (Σ per-phase certs)
	cache   *LawCache // quantized-law memo (nil until quantization is on)
	law     lawEvaluator
	upd     survivalMemo // Stage-2 update probabilities, kept by Reset

	// Observability sinks (SetObs). Strictly write-only from the hot
	// path: nothing below ever reads them back, so attaching them
	// cannot change results (see DESIGN.md §2).
	mets   *Metrics
	tracer *obs.Tracer
	clock  obs.Clock

	sent    []int64   // per-opinion sent multiset, reused
	recv    []int64   // per-opinion post-noise multiset, reused
	rowBuf  []int64   // k-length multinomial scratch, reused
	next    []int64   // next census accumulator, reused
	trans   []int64   // per-class transition draw, reused (k+1 wide)
	probs   []float64 // per-class transition law, reused (k+1 wide)
	lambda  []float64 // per-opinion Poisson rates, reused
	scratch []float64 // pool distribution q, reused
	qhat    []float64 // quantized pool distribution q̂, reused
	qidx    []int64   // q̂ lattice indices (the cache key), reused
	lawBuf  []float64 // cached-law copy destination, reused
	keyBuf  []byte    // cache-key scratch, reused
}

// New builds a census engine for n nodes under the given noise matrix
// (which fixes k), drawing from r. The census starts all-undecided;
// use Init to set it.
func New(n int64, nm *noise.Matrix, r *rng.Rand) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("census: New with n=%d", n)
	}
	if nm == nil {
		return nil, fmt.Errorf("census: New with nil noise matrix")
	}
	if r == nil {
		return nil, fmt.Errorf("census: New with nil rng")
	}
	k := nm.K()
	return &Engine{
		n:       n,
		k:       k,
		nm:      nm,
		noisy:   !nm.IsIdentity(),
		r:       r,
		counts:  make([]int64, k),
		und:     n,
		tol:     DefaultTolerance,
		sent:    make([]int64, k),
		recv:    make([]int64, k),
		rowBuf:  make([]int64, k),
		next:    make([]int64, k),
		trans:   make([]int64, k+1),
		probs:   make([]float64, k+1),
		lambda:  make([]float64, k),
		scratch: make([]float64, k),
		qhat:    make([]float64, k),
		qidx:    make([]int64, k),
		lawBuf:  make([]float64, k),
	}, nil
}

// Reset rebinds the engine to a fresh run — population n, channel nm,
// stream r, initial census counts — reusing every internal buffer,
// the law evaluator, the update-probability memo and the law cache,
// so hot loops (one engine per sweep worker, reused across trials and
// grid points) run whole trials without allocating. The memo caches a
// pure function, so keeping it needs no invalidation. A Reset run is
// bit-identical to a fresh New+Init engine driven by the same stream.
// Tolerance, quantization and cache settings carry over; callers that
// vary them per run must re-Set them.
func (e *Engine) Reset(n int64, nm *noise.Matrix, r *rng.Rand, counts []int64) error {
	if n < 1 {
		return fmt.Errorf("census: Reset with n=%d", n)
	}
	if nm == nil {
		return fmt.Errorf("census: Reset with nil noise matrix")
	}
	if r == nil {
		return fmt.Errorf("census: Reset with nil rng")
	}
	e.n = n
	e.nm = nm
	e.noisy = !nm.IsIdentity()
	e.r = r
	e.budget = 0
	e.qbudget = 0
	e.resize(nm.K())
	return e.Init(counts)
}

// resize re-slices the k-wide buffers, growing the backing arrays only
// when a Reset moves to a larger opinion space. All buffers are
// allocated together, so the counts capacity check covers the k+1-wide
// ones too.
func (e *Engine) resize(k int) {
	if k > cap(e.counts) {
		e.counts = make([]int64, k)
		e.sent = make([]int64, k)
		e.recv = make([]int64, k)
		e.rowBuf = make([]int64, k)
		e.next = make([]int64, k)
		e.trans = make([]int64, k+1)
		e.probs = make([]float64, k+1)
		e.lambda = make([]float64, k)
		e.scratch = make([]float64, k)
		e.qhat = make([]float64, k)
		e.qidx = make([]int64, k)
		e.lawBuf = make([]float64, k)
	} else {
		e.counts = e.counts[:k]
		e.sent = e.sent[:k]
		e.recv = e.recv[:k]
		e.rowBuf = e.rowBuf[:k]
		e.next = e.next[:k]
		e.trans = e.trans[:k+1]
		e.probs = e.probs[:k+1]
		e.lambda = e.lambda[:k]
		e.scratch = e.scratch[:k]
		e.qhat = e.qhat[:k]
		e.qidx = e.qidx[:k]
		e.lawBuf = e.lawBuf[:k]
	}
	e.k = k
}

// Init sets the census: counts[i] nodes hold opinion i and the
// remaining n − Σcounts nodes are undecided.
func (e *Engine) Init(counts []int64) error {
	if len(counts) != e.k {
		return fmt.Errorf("census: Init with %d counts for k=%d", len(counts), e.k)
	}
	total := int64(0)
	for i, c := range counts {
		if c < 0 {
			return fmt.Errorf("census: Init with counts[%d]=%d", i, c)
		}
		// Compare before adding: a naive running sum can wrap int64
		// (two counts of 2⁶² pass a post-add "total > n" check) and
		// silently leave a negative undecided mass.
		if c > e.n-total {
			return fmt.Errorf("census: Init counts sum beyond n=%d", e.n)
		}
		//nrlint:allow overflow -- the pre-add guard above bounds total+c by n; stricter than Add64
		total += c
	}
	copy(e.counts, counts)
	e.und = e.n - total
	return nil
}

// K returns the opinion-space size.
func (e *Engine) K() int { return e.k }

// Counts returns the current census (a copy).
func (e *Engine) Counts() []int64 { return append([]int64(nil), e.counts...) }

// Undecided returns the number of undecided nodes.
func (e *Engine) Undecided() int64 { return e.und }

// SetTolerance overrides the per-phase truncation tolerance (see
// DefaultTolerance). Lowering it tightens ErrorBudget at the price of
// wider summation windows in the Stage-2 law.
func (e *Engine) SetTolerance(tol float64) error {
	if tol <= 0 || math.IsNaN(tol) {
		return fmt.Errorf("census: SetTolerance(%v)", tol)
	}
	e.tol = tol
	return nil
}

// SetLawQuant sets the Stage-2 law quantization step η: the pool
// distribution q is rounded onto the deterministic η-lattice
// (renormalized) before the majority law is evaluated, and the
// evaluation is memoized across phases, trials and engines by the
// lattice point. Each quantized phase charges the law-level
// certificate min(1, ℓ·d_TV(q, q̂)·sens) into ErrorBudget — an upper
// bound on the TV distance between the exact phase law and the
// substituted cached law, in the same Lemma-3 currency as the
// truncation mass (see stage2Law and certSens) — so estimates and
// their approximation cost keep traveling together, and the budget
// stays ≪ 1 even at n = 10⁹. η = 0 disables quantization (the
// default): the engine is then bit-identical to an exact-law engine.
// Non-zero steps below MinLawQuant (or ≥ 1) are rejected.
func (e *Engine) SetLawQuant(eta float64) error {
	if math.IsNaN(eta) || eta < 0 || eta >= 1 || (eta > 0 && eta < MinLawQuant) {
		return fmt.Errorf("census: SetLawQuant(%v)", eta)
	}
	e.quant = eta
	if eta > 0 && e.cache == nil {
		e.cache = NewLawCache()
	}
	return nil
}

// LawQuant returns the current quantization step (0 = exact).
func (e *Engine) LawQuant() float64 { return e.quant }

// SetCache makes the engine draw quantized Stage-2 laws from c
// instead of a private cache — the sharing hook for sweep workers
// (one cache across all trials of a grid point, and beyond). A nil c
// is ignored. Sharing is deterministic: cached laws are pure
// functions of their (q̂, ℓ, tol) key, never of cache state.
func (e *Engine) SetCache(c *LawCache) {
	if c != nil {
		e.cache = c
	}
}

// ErrorBudget returns the accumulated approximation mass of the run
// so far, two legs per phase: n × (conservatively accounted per-node
// truncation gap between the sampled and the exact adoption law),
// plus — when quantization substituted a cached law — the per-phase
// law-level certificate min(1, ℓ·d_TV(q, q̂)·sens), an upper bound on
// the TV distance between the exact and the substituted phase law.
// By the union bound (over nodes for the truncation leg, over phases
// for the quantization leg) the total upper-bounds the probability
// that an exact process-P census run, optimally coupled, would have
// diverged from this one — directly comparable to (and additive with)
// the paper's Lemma-3 P↔O coupling budget.
func (e *Engine) ErrorBudget() float64 { return e.budget }

// QuantBudget returns the quantization leg of ErrorBudget alone: the
// sum of the per-phase law-level certificates charged so far (0 with
// quantization off, or when every phase bypassed the cache). It lets
// callers report how much of the budget is law substitution versus
// truncation.
func (e *Engine) QuantBudget() float64 { return e.qbudget }

// Consensus reports whether every node holds opinion m.
func (e *Engine) Consensus(m int) bool {
	if m < 0 || m >= e.k {
		return false
	}
	return e.counts[m] == e.n
}

// noiseSplit builds the phase's sent multiset (counts·rounds), pushes
// it through the noise matrix with one multinomial split per opinion
// row, and fills e.lambda with the per-opinion delivery rates g_j/n.
// It returns the total received count G. Mirrors the batch backend's
// applyNoiseBulk over int64 counts.
func (e *Engine) noiseSplit(rounds int) (int64, error) {
	if rounds < 0 {
		return 0, fmt.Errorf("census: phase with %d rounds", rounds)
	}
	for i, c := range e.counts {
		sent, ok := checked.Mul64(c, int64(rounds))
		if !ok {
			return 0, fmt.Errorf("census: phase budget %d pushers × %d rounds overflows int64", c, rounds)
		}
		e.sent[i] = sent
	}
	total, ok := checked.Sum64(e.sent)
	if !ok {
		return 0, fmt.Errorf("census: phase budget overflows int64")
	}
	if total >= 1<<53 {
		// Beyond exact float64 integers the multinomial splits would
		// silently lose low bits; no schedule this repo derives gets
		// near (n = 10⁹ × 10⁴ rounds ≈ 2⁵³/900).
		return 0, fmt.Errorf("census: phase budget %d beyond exact float64 range", total)
	}
	if !e.noisy {
		copy(e.recv, e.sent)
	} else {
		e.nm.SplitCounts64(e.r, e.sent, e.recv, e.rowBuf)
	}
	nf := float64(e.n)
	for j, g := range e.recv {
		e.lambda[j] = float64(g) / nf
	}
	if e.mets != nil {
		e.mets.messages.Add(total)
	}
	return total, nil
}

// Stage1Phase advances the census through one Stage-1 phase of the
// given length: opinionated nodes push every round, undecided nodes
// adopt a u.a.r. received opinion at phase end (or stay undecided when
// they received nothing). The transition is an exact sample of
// process P's census law — one multinomial(undecided; adopt…, stay)
// draw.
func (e *Engine) Stage1Phase(rounds int) error {
	start := obs.Now(e.clock)
	b0, q0 := e.budget, e.qbudget
	err := e.stage1Phase(rounds)
	e.observePhase(1, start, b0, q0, err)
	return err
}

func (e *Engine) stage1Phase(rounds int) error {
	if _, err := e.noiseSplit(rounds); err != nil {
		return err
	}
	if e.und == 0 {
		return nil
	}
	probs := e.probs[:e.k+1]
	stay := stage1Law(e.lambda, probs[:e.k])
	if stay == 1 {
		return nil
	}
	probs[e.k] = stay
	trans := e.trans[:e.k+1]
	dist.SampleMultinomial64(e.r, e.und, probs, trans)
	for j := 0; j < e.k; j++ {
		//nrlint:allow overflow -- trans partitions e.und, so counts[j]+trans[j] ≤ n
		e.counts[j] += trans[j]
	}
	e.und = trans[e.k]
	return nil
}

// Stage2Phase advances the census through one Stage-2 phase: rounds
// rounds of pushing, then every node that received at least
// sampleSize messages adopts the majority of a uniform sampleSize-
// subsample (ties u.a.r.). One multinomial(c_i; p_{i→·}) draw per
// class, undecided last; p_{i→j} = P(update)·r_j + P(keep)·δ_ij with
// r = MajorityLaw(q, sampleSize).
func (e *Engine) Stage2Phase(rounds, sampleSize int) error {
	start := obs.Now(e.clock)
	b0, q0 := e.budget, e.qbudget
	err := e.stage2Phase(rounds, sampleSize)
	e.observePhase(2, start, b0, q0, err)
	return err
}

func (e *Engine) stage2Phase(rounds, sampleSize int) error {
	if sampleSize < 1 {
		return fmt.Errorf("census: Stage2Phase with sample size %d", sampleSize)
	}
	total, err := e.noiseSplit(rounds)
	if err != nil {
		return err
	}
	if total == 0 {
		return nil // nobody pushed ⇒ nobody reaches the sample threshold
	}
	lambdaTotal := 0.0
	for _, l := range e.lambda {
		lambdaTotal += l
	}
	pUp := e.upd.survival(lambdaTotal, int64(sampleSize))
	if pUp == 0 {
		return nil
	}
	// The subsample composition law q is the post-noise multiset
	// distribution; it is the same for every class, so the majority
	// law is evaluated once per phase.
	q := e.scratch
	for j, l := range e.lambda {
		q[j] = l / lambdaTotal
	}
	r, err := e.stage2Law(q, sampleSize)
	if err != nil {
		return err
	}
	probs := e.probs[:e.k]
	trans := e.trans[:e.k]
	next := e.next
	for j := range next {
		next[j] = 0
	}
	for i, c := range e.counts {
		if c == 0 {
			continue
		}
		for j := range probs {
			probs[j] = pUp * r[j]
		}
		probs[i] += 1 - pUp
		dist.SampleMultinomial64(e.r, c, probs, trans)
		for j, v := range trans {
			//nrlint:allow overflow -- trans rows partition Σcounts, so Σnext ≤ n
			next[j] += v
		}
	}
	if e.und > 0 {
		// Undecided nodes follow the same update rule; non-updaters
		// stay undecided (and keep not pushing).
		probs := e.probs[:e.k+1]
		trans := e.trans[:e.k+1]
		for j := 0; j < e.k; j++ {
			probs[j] = pUp * r[j]
		}
		probs[e.k] = 1 - pUp
		dist.SampleMultinomial64(e.r, e.und, probs, trans)
		for j := 0; j < e.k; j++ {
			//nrlint:allow overflow -- trans partitions e.und, so Σnext stays ≤ n
			next[j] += trans[j]
		}
		e.und = trans[e.k]
	}
	copy(e.counts, next)
	return nil
}

// stage2Law returns the phase's renormalized Stage-2 adoption law
// r = maj(Multinomial(ℓ, ·)) and charges the phase's approximation
// mass into the engine budget. With quantization off (or the lattice
// degenerate for this pool point) it evaluates the law at q exactly —
// the historical path, bit for bit. With quantization on it evaluates
// at the lattice point q̂ instead, memoized in the law cache, and
// additionally charges the law-level certificate
//
//	cert = min(1, ℓ · d_TV(q, q̂) · sens(q̂, ℓ, η))
//
// which upper-bounds d_TV(maj(Mult(ℓ,q)), maj(Mult(ℓ,q̂))) — the TV
// distance between the exact phase law and the substituted cached law
// (certSens documents the proof chain). The census chain consumes one
// Stage-2 law per phase, so substituting r̂ for r costs one per-phase
// law-level TV term in the Lemma-3 currency — not a per-node×draw
// union bound — which is what keeps n = 10⁹ budgets ≪ 1. The
// sensitivity factor is memoized with the law; when the certificate
// exceeds certExactCutoff the phase bypasses the cache and evaluates
// exactly at q (charging only truncation mass), so no single phase
// ever contributes more than the cutoff. Law, certificate and the
// bypass decision depend only on (q, q̂, ℓ, tol, η) — never on cache
// state or evaluation order — so quantized runs stay bit-identical at
// any worker count.
func (e *Engine) stage2Law(q []float64, ell int) ([]float64, error) {
	if e.quant > 0 {
		if dtv, ok := quantizeQ(q, e.quant, e.qhat, e.qidx); ok {
			e.keyBuf = lawKey(e.keyBuf, e.qidx, ell, e.tol, e.quant)
			ent, hit := e.cache.lookup(e.keyBuf)
			if e.tracer != nil {
				e.tracer.Event("lawcache_lookup", obs.F("hit", hit), obs.F("ell", ell))
			}
			if !hit {
				law, dropped, err := e.evalRenormLaw(e.qhat, ell)
				if err != nil {
					return nil, err
				}
				ent = e.cache.store(e.keyBuf, law, dropped, certSens(e.qhat, ell, e.quant))
			}
			cert := float64(ell) * dtv * ent.sens
			if cert > 1 {
				cert = 1
			}
			if cert <= certExactCutoff {
				e.budget += cert + float64(e.n)*ent.dropped
				e.qbudget += cert
				copy(e.lawBuf, ent.r)
				return e.lawBuf, nil
			}
			// Certificate too weak for this pool point (a near-tie pool
			// with large ℓ): fall through to the exact law at q. The
			// q̂-law stays cached for phases whose cell it can certify.
		}
		if e.mets != nil {
			e.mets.exactFallback.Inc()
		}
	}
	law, dropped, err := e.evalRenormLaw(q, ell)
	if err != nil {
		return nil, err
	}
	e.budget += float64(e.n) * dropped
	return law, nil
}

// evalRenormLaw evaluates the majority law at q through the engine's
// reusable evaluator and renormalizes the truncated result into a
// proper distribution; the sampled transition then sits within
// `dropped` total variation of the exact law. The returned slice is
// the evaluator's buffer, valid until the next evaluation.
func (e *Engine) evalRenormLaw(q []float64, ell int) ([]float64, float64, error) {
	r, dropped := e.law.eval(q, ell, e.tol)
	sum := 0.0
	for _, v := range r {
		sum += v
	}
	if sum <= 0 {
		return nil, 0, fmt.Errorf("census: majority law fully truncated (tol=%v too loose)", e.tol)
	}
	for j := range r {
		r[j] /= sum
	}
	return r, dropped, nil
}
