package sweep

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/resilience"
	"github.com/gossipkit/noisyrumor/internal/stats"
)

// Scaling measures T(n), the rounds until every node holds the
// correct opinion, across decades of n and fits it against ln n — the
// Theorems-1/2 claim that the full two-stage protocol converges in
// Θ(log n/ε²) rounds. The census engine's n-independent per-phase
// cost is what lets the grid reach n = 10¹² on a laptop.
type Scaling struct {
	// Matrix / K / Delta / Engine are as in Point.
	Matrix string  `json:"matrix"`
	K      int     `json:"k"`
	Delta  float64 `json:"delta"`
	Engine string  `json:"engine,omitempty"`
	// ChannelEps is the channel parameter; ProtoEps the protocol's
	// assumed ε (0 = ChannelEps).
	ChannelEps float64 `json:"channel_eps"`
	ProtoEps   float64 `json:"proto_eps,omitempty"`
	// Ns lists the populations, one point each.
	Ns []int64 `json:"ns"`
	// Trials is the per-point trial budget.
	Trials int `json:"trials"`
	// LawQuant is the census engine's Stage-2 law quantization step η
	// (0 = exact; see core.Params.LawQuant).
	LawQuant float64 `json:"law_quant,omitempty"`
	// CensusTol overrides the census engine's truncation tolerance
	// (0 = default; see core.Params.CensusTol).
	CensusTol float64 `json:"census_tol,omitempty"`
}

// ScalingResult is the measured T(n) curve and its log-law fit. A
// sharded run carries only the shard's own points and leaves Fit zero
// — the fit belongs to the merged curve, computed after Merge by a
// single-host resume.
type ScalingResult struct {
	Points []PointResult `json:"points"`
	// Fit is the least-squares line MeanRounds = Intercept +
	// Slope·ln n, with R2 and RMSE (in rounds) as residual measures.
	Fit stats.Fit `json:"fit"`
	// ErrorBudget is the summed approximation budget of every trial
	// that produced the curve.
	ErrorBudget float64 `json:"error_budget"`
	// QuantBudget is the quantization leg of ErrorBudget (zero for
	// exact sweeps).
	QuantBudget float64 `json:"quant_budget,omitempty"`
	// Shard is the slice this run evaluated (nil = every n).
	Shard *Shard `json:"shard,omitempty"`
	// Quarantined lists point indices skipped after classified failures
	// (excluded from the fit); Salvaged counts damaged checkpoint lines
	// dropped and recomputed on resume.
	Quarantined []int `json:"quarantined,omitempty"`
	Salvaged    int   `json:"salvaged,omitempty"`
}

// RunScaling evaluates every population size and fits the log law.
// With Runner.Checkpoint set, completed points persist and resume as
// in RunGrid.
func (r Runner) RunScaling(s Scaling) (*ScalingResult, error) {
	if len(s.Ns) < 2 {
		return nil, fmt.Errorf("sweep: scaling needs at least 2 population sizes, got %d", len(s.Ns))
	}
	if s.Trials < 1 {
		return nil, fmt.Errorf("sweep: scaling needs trials ≥ 1, got %d", s.Trials)
	}
	proto := s.ProtoEps
	if proto == 0 {
		proto = s.ChannelEps
	}
	if err := r.Shard.Validate(); err != nil {
		return nil, err
	}
	ck, err := r.openCheckpoint("scaling", s)
	if err != nil {
		return nil, err
	}
	defer ck.abandon()
	res := &ScalingResult{Shard: r.Shard.ptr(), Salvaged: ck.salvagedCount()}
	runners := r.newTrialRunners(r.workers())
	breaker := resilience.NewBreaker(breakAfter)
	var x, y []float64
	for i, n := range s.Ns {
		if !r.Shard.Owns(i) {
			continue
		}
		p := Point{
			Index:      i,
			Matrix:     s.Matrix,
			K:          s.K,
			ChannelEps: s.ChannelEps,
			Delta:      s.Delta,
			N:          n,
			Engine:     s.Engine,
			Trials:     s.Trials,
			Params:     defaultPointParams(proto, 0, s.LawQuant, s.CensusTol),
		}
		t0 := obs.Now(r.Obs.Clock)
		pr, ok := ck.get(i)
		if !ok {
			pr, err = r.evalPoint(p, runners)
			if err != nil {
				return nil, err
			}
			if err := r.putCheckpoint(ck, i, pr); err != nil {
				return nil, err
			}
		}
		r.observePoint(pr, t0, !ok)
		breaker.Record(pr.Error != nil)
		if err := breaker.Err(); err != nil {
			return nil, fmt.Errorf("sweep: scaling aborted at n=%d: %w", n, err)
		}
		res.Points = append(res.Points, pr)
		res.ErrorBudget += pr.ErrorBudget
		res.QuantBudget += pr.QuantBudget
		if pr.Error != nil {
			res.Quarantined = append(res.Quarantined, i)
			continue // a quarantined point contributes nothing to the fit
		}
		x = append(x, math.Log(float64(n)))
		y = append(y, pr.MeanRounds)
	}
	// The log-law fit only makes sense over the full curve: a sharded
	// run leaves Fit zero for the post-merge single-host resume, and a
	// quarantine-thinned curve must still have two good points.
	if !r.Shard.Enabled() {
		if len(x) < 2 {
			return nil, fmt.Errorf("sweep: scaling has %d usable points after quarantine, need at least 2 to fit", len(x))
		}
		fit, err := stats.LinearFit(x, y)
		if err != nil {
			return nil, err
		}
		res.Fit = fit
	}
	if err := ck.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// Decades returns populations 10^lo, 10^(lo+1), …, 10^hi — the
// standard Ns grid of a scaling sweep.
func Decades(lo, hi int) []int64 {
	if lo < 0 || hi < lo || hi > 18 {
		return nil
	}
	out := make([]int64, 0, hi-lo+1)
	v := int64(1)
	for e := 0; e <= hi; e++ {
		if e >= lo {
			out = append(out, v)
		}
		if e < hi {
			//nrlint:allow overflow -- hi ≤ 18 is validated above, so v ≤ 10¹⁸ < 2⁶³
			v *= 10
		}
	}
	return out
}
