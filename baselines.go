package noisyrumor

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/dynamics"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// BaselineRule selects one of the related-work dynamics the paper
// positions itself against (Section 1.3). None of them performs the
// two-stage protocol's phase-level noise averaging, so under channel
// noise they stall short of correct consensus — running them side by
// side with the protocol is the quickest way to see why the paper's
// design matters.
type BaselineRule = dynamics.Rule

// Baseline rules.
const (
	// BaselineVoter copies one noisy observation per round.
	BaselineVoter = dynamics.Voter
	// BaselineHMajority adopts the majority of H noisy observations
	// (H = 3 is the classic 3-majority dynamics).
	BaselineHMajority = dynamics.HMajority
	// BaselineUndecidedState is the undecided-state dynamics of
	// Angluin, Aspnes and Eisenstat.
	BaselineUndecidedState = dynamics.UndecidedState
)

// BaselineResult reports a baseline run.
type BaselineResult = dynamics.Result

// RunBaseline executes a baseline dynamics from the given initial
// per-opinion counts (remaining agents undecided) for at most
// maxRounds rounds under cfg's noise matrix. The correct opinion is
// the strict plurality of counts.
func RunBaseline(cfg Config, rule BaselineRule, h int, counts []int, maxRounds int) (BaselineResult, error) {
	if err := cfg.validate(); err != nil {
		return BaselineResult{}, err
	}
	k := cfg.Noise.K()
	if len(counts) != k {
		return BaselineResult{}, fmt.Errorf("noisyrumor: %d opinion counts for a %d-opinion noise matrix",
			len(counts), k)
	}
	n, err := perNodeN(cfg.N)
	if err != nil {
		return BaselineResult{}, err
	}
	initial, err := model.InitPlurality(n, counts)
	if err != nil {
		return BaselineResult{}, err
	}
	plurality, strict := model.Plurality(initial, k)
	if !strict {
		return BaselineResult{}, fmt.Errorf("noisyrumor: initial counts %v have no strict plurality", counts)
	}
	return dynamics.Run(dynamics.Config{
		Rule:      rule,
		H:         h,
		Noise:     cfg.Noise,
		MaxRounds: maxRounds,
	}, initial, plurality, rng.New(cfg.Seed))
}

// perNodeN narrows Config.N for the baseline dynamics, which size
// O(N·k) buffers with int indices. On 64-bit hosts the check is moot;
// on 32-bit builds it turns what would be a silent truncation into an
// actionable error.
func perNodeN(n int64) (int, error) {
	if int64(int(n)) != n {
		return 0, fmt.Errorf("noisyrumor: N=%d exceeds the per-node engines' int range; use Engine: ProcessCensus", n)
	}
	return int(n), nil
}
