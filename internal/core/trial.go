package core

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/checked"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// Trial is one protocol run from an initial opinion census: N nodes,
// Counts[i] of them starting with opinion i and the rest undecided,
// judged against Correct. Theorem 1's rumor spreading is the census
// with a single source; Theorem 2's plurality consensus a δ-biased one.
type Trial struct {
	// Engine is the communication process: O, B, P or the census.
	Engine model.Process
	N      int64
	Noise  *noise.Matrix
	Params Params
	Counts []int64
	// Correct is the opinion the outcome is judged against.
	Correct model.Opinion
	// Trace records per-phase statistics into the result.
	Trace bool
}

// RunTrial runs t on r's stream. Every caller that turns an engine and
// an initial census into a protocol run comes through here, so the
// per-node engines and the census engine stay interchangeable samplers
// of one protocol (Claim 1, Definition 4).
//
// The census engine runs on cr, or on a fresh runner when cr is nil.
// A per-node engine lays the census out as a per-node vector
// (InitialOpinions), binds mm (nil disables it) and runs the protocol;
// its result carries no final census and a zero error budget.
func RunTrial(t Trial, r *rng.Rand, cr *CensusRunner, mm *model.Metrics) (CensusResult, error) {
	if t.Engine == model.ProcessCensus {
		if cr == nil {
			cr = new(CensusRunner)
		}
		return cr.Run(t.N, t.Noise, t.Params, t.Counts, t.Correct, t.Trace, r)
	}
	initial, err := InitialOpinions(t.N, t.Counts)
	if err != nil {
		return CensusResult{}, err
	}
	res, err := RunVector(t.Engine, t.Noise, t.Params, initial, t.Correct, t.Trace, r, mm)
	return CensusResult{Result: res}, err
}

// InitialOpinions lays an initial census out as a per-node opinion
// vector of length n (model.InitPlurality), narrowing n and the counts
// to the per-node engines' int range.
func InitialOpinions(n int64, counts []int64) ([]model.Opinion, error) {
	nInt, ok := checked.Int(n)
	if !ok {
		return nil, fmt.Errorf("core: n=%d exceeds the per-node engines' range; use the census engine", n)
	}
	narrow := make([]int, len(counts))
	for i, c := range counts {
		if narrow[i], ok = checked.Int(c); !ok {
			return nil, fmt.Errorf("core: count %d exceeds the per-node engines' range; use the census engine", c)
		}
	}
	return model.InitPlurality(nInt, narrow)
}

// RunVector runs the protocol on a per-node engine (O, B or P) from an
// explicit initial opinion vector, one node per entry, binding mm (nil
// disables it) to the engine.
func RunVector(proc model.Process, nm *noise.Matrix, params Params, initial []model.Opinion,
	correct model.Opinion, trace bool, r *rng.Rand, mm *model.Metrics) (Result, error) {

	eng, err := model.NewEngine(len(initial), nm, proc, r)
	if err != nil {
		return Result{}, err
	}
	mm.Bind(eng, proc.String())
	p, err := New(eng, params)
	if err != nil {
		return Result{}, err
	}
	p.SetTrace(trace)
	return p.Run(initial, correct)
}

// Plurality returns the strict-argmax opinion of an initial census and
// whether it is strict; an all-zero census has none.
func Plurality(counts []int64) (model.Opinion, bool) {
	best, bestCount, ties := model.Undecided, int64(-1), 0
	for i, v := range counts {
		switch {
		case v > bestCount:
			best, bestCount, ties = model.Opinion(i), v, 1
		case v == bestCount:
			ties++
		}
	}
	if bestCount <= 0 {
		return model.Undecided, false
	}
	return best, ties == 1
}
