package sim

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// outcome is the per-trial record the experiments aggregate.
type outcome struct {
	correct    bool
	consensus  bool
	rounds     int // rounds until all nodes correct (scheduled total if never)
	scheduled  int
	maxCounter int
	memoryBits int
	trace      []core.PhaseStats
	err        error
}

// runProtocol executes one protocol trial of n nodes, counts[i] of
// them starting with opinion i and opinion 0 correct, on the engine
// and backend named by cfg. cfg's engine knobs fill the ones params
// leaves unset: an experiment that pins a backend in its Params wins.
// Errors are carried in the outcome so Parallel trials can surface
// them after the fan-in. Census trials report zero per-node memory
// observables (maxCounter, memoryBits): that engine keeps no per-node
// state.
func runProtocol(cfg Config, r *rng.Rand, n int, nm *noise.Matrix, params core.Params,
	counts []int64, trace bool) outcome {

	proc, err := model.ProcessByName(cfg.Engine)
	if err != nil {
		return outcome{err: err}
	}
	if params.Backend == "" {
		params.Backend = cfg.Backend
	}
	if params.Threads == 0 {
		params.Threads = cfg.Threads
	}
	if params.LawQuant == 0 {
		params.LawQuant = cfg.LawQuant
	}
	if params.CensusTol == 0 {
		params.CensusTol = cfg.CensusTol
	}
	cr := core.NewCensusRunner(nil)
	cr.SetObs(cfg.Obs.Census, cfg.Obs.Tracer, cfg.Obs.Clock)
	res, err := core.RunTrial(core.Trial{Engine: proc, N: int64(n), Noise: nm, Params: params, Counts: counts, Trace: trace},
		r, cr, cfg.Obs.Model)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		correct:    res.Correct,
		consensus:  res.Consensus,
		rounds:     res.RoundsToAllCorrect(),
		scheduled:  res.Rounds,
		maxCounter: res.MaxCounter,
		memoryBits: res.MemoryBits,
		trace:      res.Trace,
	}
}

// firstError scans trial outcomes for a failure.
func firstError(outs []outcome) error {
	for i, o := range outs {
		if o.err != nil {
			return fmt.Errorf("trial %d: %w", i, o.err)
		}
	}
	return nil
}

// successStats aggregates correctness over trials.
func successStats(outs []outcome) (successes int, meanRounds float64) {
	sum := 0.0
	for _, o := range outs {
		if o.correct {
			successes++
		}
		sum += float64(o.rounds)
	}
	return successes, sum / float64(len(outs))
}
