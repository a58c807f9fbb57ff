package sweep

import (
	"fmt"
	"math"
)

// Bisect is an adaptive search for the critical channel parameter
// ε*(k, matrix): the noise level at which the protocol's success
// probability crosses 1/2 under a FIXED protocol schedule. The
// protocol's assumed ε (ProtoEps) is pinned while the channel's
// actual ε varies — exactly the mismatch Definition 2 arbitrates: the
// paper proves the protocol run with parameter ε succeeds on every
// (ε,δ)-majority-preserving channel, so as the channel degrades below
// the LP boundary (LPBoundary), success must collapse. The bisection
// localizes where it does.
type Bisect struct {
	// Matrix / K / N / Delta / Engine are as in Point.
	Matrix string  `json:"matrix"`
	K      int     `json:"k"`
	N      int64   `json:"n"`
	Delta  float64 `json:"delta"`
	Engine string  `json:"engine,omitempty"`
	// ProtoEps is the protocol's assumed ε; it fixes the schedule for
	// every evaluation. Required.
	ProtoEps float64 `json:"proto_eps"`
	// C overrides the Stage-2 constant c when non-zero.
	C float64 `json:"c,omitempty"`
	// Lo and Hi bracket the search: the success probability must be
	// below 1/2 at Lo and above it at Hi.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Tol is the bracket width at which the search stops.
	Tol float64 `json:"tol"`
	// Trials is the per-evaluation trial budget; Batch the Wilson
	// early-stopping batch size (0 = max(8, Trials/8)).
	Trials int `json:"trials"`
	Batch  int `json:"batch,omitempty"`
	// MaxEvals caps the number of evaluations (0 = 40).
	MaxEvals int `json:"max_evals,omitempty"`
	// LawQuant is the census engine's Stage-2 law quantization step η
	// (0 = exact; see core.Params.LawQuant). Bisections profit most
	// from it: every evaluation hammers the same ε neighborhood, so
	// the shared law cache converts near-identical law evaluations
	// into lookups.
	LawQuant float64 `json:"law_quant,omitempty"`
	// CensusTol overrides the census engine's truncation tolerance
	// (0 = default; see core.Params.CensusTol).
	CensusTol float64 `json:"census_tol,omitempty"`
}

// BisectEval is one evaluated channel ε.
type BisectEval struct {
	Eps    float64     `json:"eps"`
	Result PointResult `json:"result"`
	// Resolved reports whether the Wilson interval excluded 1/2;
	// Above is the side (success probability provably above 1/2) and
	// is meaningful only when Resolved.
	Resolved bool `json:"resolved"`
	Above    bool `json:"above"`
}

// BisectResult is the located threshold.
type BisectResult struct {
	Evals []BisectEval `json:"evals"`
	// Lo and Hi are the final bracket; Critical its midpoint — the
	// point estimate of ε*.
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Critical float64 `json:"critical"`
	// BandLo and BandHi bound the critical REGION: the union of the
	// final bracket with every evaluated ε whose success rate the
	// trial budget could not statistically distinguish from 1/2. This
	// is the honest uncertainty of the estimate — for finite n the
	// transition is a band, not a point, and any theory-predicted
	// boundary should be compared against the band.
	BandLo float64 `json:"band_lo"`
	BandHi float64 `json:"band_hi"`
	// ErrorBudget sums the approximation budget of every evaluation.
	ErrorBudget float64 `json:"error_budget"`
	// QuantBudget is the quantization leg of ErrorBudget (zero for
	// exact runs).
	QuantBudget float64 `json:"quant_budget,omitempty"`
	// Salvaged counts damaged checkpoint lines dropped (and recomputed)
	// on resume.
	Salvaged int `json:"salvaged,omitempty"`
}

// Contains reports whether eps lies in the critical band, with a tiny
// numeric slack so boundaries located by float bisection compare as
// intended at the band edges.
func (r *BisectResult) Contains(eps float64) bool {
	const slack = 1e-9
	return eps >= r.BandLo-slack && eps <= r.BandHi+slack
}

// Validate reports the first error RunBisect would meet before its
// first trial: a bad protocol ε, bracket, tolerance or trial budget, or
// a matrix, initial census, schedule or engine that does not resolve at
// the bracket's ends (see checkPoints; every family's valid channel
// parameters form an interval, so the midpoints resolve too). It runs
// no trial and touches no file; RunBisect calls it before it opens the
// checkpoint.
func (b Bisect) Validate() error {
	if b.ProtoEps <= 0 || b.ProtoEps > 1 {
		return fmt.Errorf("bisect needs protocol ε ∈ (0,1], got %v", b.ProtoEps)
	}
	if !(b.Lo < b.Hi) {
		return fmt.Errorf("bisect needs lo < hi, got [%v, %v]", b.Lo, b.Hi)
	}
	if b.Tol <= 0 {
		return fmt.Errorf("bisect needs tol > 0, got %v", b.Tol)
	}
	if b.Trials < 1 {
		return fmt.Errorf("bisect needs trials ≥ 1, got %d", b.Trials)
	}
	return checkPoints([]Point{b.point(0, b.Lo), b.point(1, b.Hi)})
}

// point materializes the evaluation at channel ε with eval index idx.
func (b Bisect) point(idx int, eps float64) Point {
	return Point{
		Index:      idx,
		Matrix:     b.Matrix,
		K:          b.K,
		ChannelEps: eps,
		Delta:      b.Delta,
		N:          b.N,
		Engine:     b.Engine,
		Trials:     b.Trials,
		Params:     defaultPointParams(b.ProtoEps, b.C, b.LawQuant, b.CensusTol),
	}
}

// RunBisect locates the critical channel ε. Every evaluation's trial
// streams are keyed by its evaluation index, and the eval sequence is
// a deterministic function of the accumulating results, so the whole
// search is a pure function of (spec, seed) for any worker count.
// With Runner.Checkpoint set, completed evaluations persist and a
// resumed search replays the identical decision sequence.
//
// A sharded runner computes every evaluation (the adaptive search is
// inherently sequential) but persists only the evaluation indices its
// shard owns — custody partitioning, so shard checkpoints still merge
// into the single-host journal. A quarantined evaluation aborts the
// search: unlike a grid, bisection cannot step past a missing result.
func (r Runner) RunBisect(b Bisect) (*BisectResult, error) {
	if err := r.Shard.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	maxEvals := b.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 40
	}
	ck, err := r.openCheckpoint("bisect", b)
	if err != nil {
		return nil, err
	}
	defer ck.abandon()
	res := &BisectResult{BandLo: math.Inf(1), BandHi: math.Inf(-1), Salvaged: ck.salvagedCount()}
	pool := r.startPool()
	defer pool.stop()
	eval := func(eps float64) (BisectEval, error) {
		idx := len(res.Evals)
		var t0 int64
		pr, ok := ck.get(idx)
		if !ok {
			var err error
			pr, t0, err = r.evalPointAdaptive(pool, b.point(idx, eps), b.Batch)
			if err != nil {
				return BisectEval{}, err
			}
			if pr.Error != nil {
				r.observePoint(pr, t0, true)
				// Persist the quarantine record for accounting, then stop:
				// the adaptive search cannot continue past a failed
				// evaluation, and a re-run of this build panics the same way.
				_ = r.putCheckpoint(ck, idx, pr)
				return BisectEval{}, fmt.Errorf("bisect eval %d (ε=%v) quarantined after trial %d: %s; the adaptive search cannot continue past a failed evaluation, and this build replays the panic on every run: fix the bug, then resume with the same -checkpoint",
					idx, eps, pr.Error.Trial, pr.Error.Msg)
			}
			if err := r.putCheckpoint(ck, idx, pr); err != nil {
				return BisectEval{}, err
			}
		}
		r.observePoint(pr, t0, !ok)
		ev := BisectEval{Eps: eps, Result: pr}
		switch {
		case pr.WilsonLo > 0.5:
			ev.Resolved, ev.Above = true, true
		case pr.WilsonHi < 0.5:
			ev.Resolved, ev.Above = true, false
		default:
			if eps < res.BandLo {
				res.BandLo = eps
			}
			if eps > res.BandHi {
				res.BandHi = eps
			}
		}
		res.Evals = append(res.Evals, ev)
		res.ErrorBudget += pr.ErrorBudget
		res.QuantBudget += pr.QuantBudget
		return ev, nil
	}

	loEval, err := eval(b.Lo)
	if err != nil {
		return nil, err
	}
	hiEval, err := eval(b.Hi)
	if err != nil {
		return nil, err
	}
	if loEval.Result.SuccessRate >= 0.5 || hiEval.Result.SuccessRate <= 0.5 {
		return nil, fmt.Errorf("bisect bracket [%v, %v] does not straddle 1/2 (success %0.2f and %0.2f); widen it",
			b.Lo, b.Hi, loEval.Result.SuccessRate, hiEval.Result.SuccessRate)
	}
	lo, hi := b.Lo, b.Hi
	for hi-lo > b.Tol && len(res.Evals) < maxEvals {
		mid := (lo + hi) / 2
		ev, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if ev.Result.SuccessRate > 0.5 {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Lo, res.Hi = lo, hi
	res.Critical = (lo + hi) / 2
	// The critical band is the bracket joined with the statistically
	// unresolved evaluations (none of which can be ruled out as the
	// crossing at this confidence and budget).
	if res.BandLo > lo {
		res.BandLo = lo
	}
	if res.BandHi < hi {
		res.BandHi = hi
	}
	if err := ck.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// LPBoundary returns the channel parameter at which the named matrix
// family stops being (protoEps, delta)-majority-preserving with
// respect to opinion 0 — the Section-4 LP's prediction of where a
// protocol assuming ε = protoEps loses its guarantee. Located by
// bisection on the exact LP verdict over channel parameters [lo, hi]:
// the kept bias of these families grows with their channel parameter,
// so the crossing is unique. Errors when the boundary is not
// bracketed.
func LPBoundary(matrix string, k int, protoEps, delta, lo, hi float64) (float64, error) {
	if delta <= 0 || delta > 1 {
		return 0, fmt.Errorf("LPBoundary needs δ ∈ (0,1], got %v", delta)
	}
	maxEps := func(ch float64) (float64, error) {
		nm, err := BuildMatrix(matrix, k, ch)
		if err != nil {
			return 0, err
		}
		return nm.MaxEpsilonMP(0, delta, 1e-12)
	}
	atLo, err := maxEps(lo)
	if err != nil {
		return 0, err
	}
	atHi, err := maxEps(hi)
	if err != nil {
		return 0, err
	}
	if atLo >= protoEps || atHi <= protoEps {
		return 0, fmt.Errorf("LP boundary for ε=%v not bracketed by channel range [%v, %v] (max m.p. ε %v and %v)",
			protoEps, lo, hi, atLo, atHi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		at, err := maxEps(mid)
		if err != nil {
			return 0, err
		}
		if at > protoEps {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}
