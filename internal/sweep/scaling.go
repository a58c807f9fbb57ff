package sweep

import (
	"fmt"
	"math"

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
	// Quarantined lists point indices skipped because a trial panicked
	// (excluded from the fit); Salvaged counts damaged checkpoint lines
	// dropped and recomputed on resume.
	Quarantined []int `json:"quarantined,omitempty"`
	Salvaged    int   `json:"salvaged,omitempty"`
}

// Validate reports the first error RunScaling would meet before its
// first trial: fewer than two populations, no trial budget, or a point
// whose matrix, initial census, schedule or engine does not resolve
// (see checkPoints). It runs no trial and touches no file; RunScaling
// calls it before it opens the checkpoint.
func (s Scaling) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve materializes one point per population size and checks them.
func (s Scaling) resolve() ([]Point, error) {
	if len(s.Ns) < 2 {
		return nil, fmt.Errorf("scaling needs at least 2 population sizes, got %d", len(s.Ns))
	}
	if s.Trials < 1 {
		return nil, fmt.Errorf("scaling needs trials ≥ 1, got %d", s.Trials)
	}
	proto := s.ProtoEps
	if proto == 0 {
		proto = s.ChannelEps
	}
	pts := make([]Point, len(s.Ns))
	for i, n := range s.Ns {
		pts[i] = Point{
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
	}
	return pts, checkPoints(pts)
}

// RunScaling evaluates every population size and fits the log law.
// With Runner.Checkpoint set, completed points persist and resume as
// in RunGrid.
func (r Runner) RunScaling(s Scaling) (*ScalingResult, error) {
	pts, err := s.resolve()
	if err != nil {
		return nil, err
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
	var x, y []float64
	err = r.runPoints(pts, ck, func(p Point) string { return fmt.Sprintf("scaling aborted at n=%d", p.N) },
		func(p Point, pr PointResult) {
			res.Points = append(res.Points, pr)
			res.ErrorBudget += pr.ErrorBudget
			res.QuantBudget += pr.QuantBudget
			if pr.Error != nil {
				res.Quarantined = append(res.Quarantined, p.Index)
				return // a quarantined point contributes nothing to the fit
			}
			x = append(x, math.Log(float64(p.N)))
			y = append(y, pr.MeanRounds)
		})
	if err != nil {
		return nil, err
	}
	// The log-law fit only makes sense over the full curve: a sharded
	// run leaves Fit zero for the post-merge single-host resume, and a
	// quarantine-thinned curve must still have two good points.
	if !r.Shard.Enabled() {
		if len(x) < 2 {
			return nil, fmt.Errorf("scaling has %d usable points after quarantine, need at least 2 to fit", len(x))
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
