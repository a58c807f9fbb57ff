package core

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// CensusResult is a census run's outcome: the shared Result fields
// plus the aggregate engine's truncation accounting. MaxCounter and
// MemoryBits are zero — the census engine keeps no per-node state, so
// the memory-accounting observables of Theorems 1–2 are not defined
// for it (E11 measures them on the per-node engines).
type CensusResult struct {
	Result
	// Final is the end-of-run census.
	Final []int64
	// Undecided is the number of still-undecided nodes at the end.
	Undecided int64
	// ErrorBudget is the run's accumulated Lemma-3-style approximation
	// budget: truncation mass plus, under quantization, the per-phase
	// law-level certificates (see census.Engine.ErrorBudget).
	ErrorBudget float64
	// QuantBudget is the quantization leg of ErrorBudget alone — the
	// summed law-level certificates (census.Engine.QuantBudget); zero
	// for exact runs.
	QuantBudget float64
}

// RunCensus executes the full two-stage protocol on the aggregate
// census engine: the same Schedule as a per-node run of n nodes, but
// every phase advances the k-dimensional opinion census with one
// multinomial transition draw per class — per-phase cost independent
// of n. It is the protocol fast path that skips the per-node Stage-1
// adoption and Stage-2 subsampling loops entirely, which is what
// makes n ≥ 10⁹ sweeps take seconds.
//
// initial[i] nodes start with opinion i and the remaining
// n − Σinitial start undecided. The run is a pure function of r's
// seed; draws happen in the fixed serial order documented in the
// census package. Hot loops that execute many runs should hold a
// CensusRunner instead, which reuses one engine across calls.
func RunCensus(n int64, nm *noise.Matrix, params Params, initial []int64,
	correct model.Opinion, trace bool, r *rng.Rand) (CensusResult, error) {

	return new(CensusRunner).Run(n, nm, params, initial, correct, trace, r)
}

// CensusRunner executes census-engine protocol runs while reusing one
// engine — its buffers, its law evaluator and its Stage-2 law cache —
// and the schedule of the last point across calls. This is the
// allocation-free path of the sweep hot loop: a worker holds one
// runner for its whole lifetime and runs every trial of every grid
// point through it. Not safe for concurrent
// use; each worker owns its runner. The zero value is ready; a shared
// law cache (one per sweep, say) can be injected with NewCensusRunner.
//
// Reuse does not change results: a runner's Run is bit-identical to a
// fresh RunCensus with the same arguments and stream (the engine's
// Reset contract), which is what keeps sweeps worker-count invariant.
type CensusRunner struct {
	eng   *census.Engine
	cache *census.LawCache

	// sched is NewSchedule(schedN, schedP) of the last run, so that a
	// worker's trials at one point derive their schedule once. Run
	// only reads it.
	sched  Schedule
	schedN int64
	schedP Params

	// Observability sinks, applied to the engine on creation and kept
	// across Reset (SetObs). Write-only: attaching them cannot change
	// results.
	mets   *census.Metrics
	tracer *obs.Tracer
	clock  obs.Clock
}

// NewCensusRunner returns a runner whose engine draws quantized
// Stage-2 laws from the shared cache (nil means a private cache).
func NewCensusRunner(cache *census.LawCache) *CensusRunner {
	return &CensusRunner{cache: cache}
}

// SetObs attaches observability sinks — a census metric bundle, an
// NDJSON tracer and the injected clock — to the runner's engine (and
// to engines it creates later). All three may be nil. Per the
// observability contract the sinks are write-only, so runs with and
// without them are bit-identical.
func (cr *CensusRunner) SetObs(m *census.Metrics, tracer *obs.Tracer, clock obs.Clock) {
	cr.mets = m
	cr.tracer = tracer
	cr.clock = clock
	if cr.eng != nil {
		cr.eng.SetObs(m, tracer, clock)
	}
}

// Run is RunCensus on the runner's reused engine. The protocol knobs
// (tolerance, quantization) are re-applied from params on every call,
// so a runner can serve runs with differing parameters back to back.
func (cr *CensusRunner) Run(n int64, nm *noise.Matrix, params Params, initial []int64,
	correct model.Opinion, trace bool, r *rng.Rand) (CensusResult, error) {

	if nm == nil {
		return CensusResult{}, fmt.Errorf("core: nil noise matrix")
	}
	if correct < 0 || int(correct) >= nm.K() {
		return CensusResult{}, fmt.Errorf("core: correct opinion %d out of range [0,%d)", correct, nm.K())
	}
	if cr.sched.Stage1 == nil || n != cr.schedN || params != cr.schedP {
		sched, err := NewSchedule(n, params)
		if err != nil {
			return CensusResult{}, err
		}
		cr.sched, cr.schedN, cr.schedP = sched, n, params
	}
	sched := cr.sched
	var eng *census.Engine
	var err error
	if cr.eng == nil {
		eng, err = census.New(n, nm, r)
		if err != nil {
			return CensusResult{}, err
		}
		eng.SetCache(cr.cache)
		eng.SetObs(cr.mets, cr.tracer, cr.clock)
		if err := eng.Init(initial); err != nil {
			return CensusResult{}, err
		}
		cr.eng = eng
	} else {
		eng = cr.eng
		if err := eng.Reset(n, nm, r, initial); err != nil {
			return CensusResult{}, err
		}
	}
	tol := census.DefaultTolerance
	if params.CensusTol > 0 {
		tol = params.CensusTol
	}
	if err := eng.SetTolerance(tol); err != nil {
		return CensusResult{}, err
	}
	if err := eng.SetLawQuant(params.LawQuant); err != nil {
		return CensusResult{}, err
	}

	res := CensusResult{Result: Result{FirstAllCorrect: -1}}
	k := eng.K()
	roundsDone := 0
	record := func(stage, phase, rounds int) {
		roundsDone += rounds
		if res.FirstAllCorrect < 0 && eng.Consensus(int(correct)) {
			res.FirstAllCorrect = roundsDone
		}
		if !trace {
			return
		}
		counts := eng.Counts()
		c := make([]float64, k)
		for i, v := range counts {
			c[i] = float64(v) / float64(n)
		}
		best := math.Inf(-1)
		for i, v := range c {
			if model.Opinion(i) != correct && v > best {
				best = v
			}
		}
		bias := 0.0
		if k > 1 {
			bias = c[correct] - best
		}
		res.Trace = append(res.Trace, PhaseStats{
			Stage:       stage,
			Phase:       phase,
			Rounds:      rounds,
			Opinionated: n - eng.Undecided(),
			Dist:        c,
			Bias:        bias,
			ErrorBudget: eng.ErrorBudget(),
			QuantBudget: eng.QuantBudget(),
		})
	}

	for j, rounds := range sched.Stage1 {
		if err := eng.Stage1Phase(rounds); err != nil {
			return CensusResult{}, err
		}
		record(1, j, rounds)
	}
	for j, ph := range sched.Stage2 {
		if err := eng.Stage2Phase(ph.Rounds, ph.SampleSize); err != nil {
			return CensusResult{}, err
		}
		record(2, j, ph.Rounds)
	}

	res.Rounds = roundsDone
	res.Final = eng.Counts()
	res.Undecided = eng.Undecided()
	res.ErrorBudget = eng.ErrorBudget()
	res.QuantBudget = eng.QuantBudget()
	res.Winner = model.Undecided
	for i, c := range res.Final {
		if c == n {
			res.Winner = model.Opinion(i)
			res.Consensus = true
			res.Correct = res.Winner == correct
			break
		}
	}
	return res, nil
}
