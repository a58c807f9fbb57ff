// Package sweep is the phase-diagram instrument of the reproduction:
// a deterministic parameter-sweep orchestrator that drives the
// aggregate census engine (and, for cross-checks, the per-node
// engines) over parameter grids and adaptive searches.
//
// The paper's headline results are thresholds and scaling laws —
// plurality consensus succeeds iff the channel is
// (ε,δ)-majority-preserving (Theorems 1–2, the Section-4 LP verdict),
// with Θ(log n/ε²) convergence — and probing a threshold takes
// thousands of runs, not one. The census engine's n-independent
// per-phase cost (internal/census) makes that affordable; this
// package supplies the orchestration:
//
//   - Grid — the cartesian fan (matrix, k, ε, δ, n, c) evaluated
//     point by point, success rates with Wilson intervals;
//   - Bisect — adaptive bisection locating the critical channel ε*
//     where the success probability crosses 1/2, with Wilson-interval
//     early stopping per evaluation, plus LPBoundary, the matching
//     prediction from the exact majority-preservation LP;
//   - Scaling — rounds-to-consensus T(n) against ln n across decades
//     of n, reported as a least-squares slope with residuals.
//
// Determinism contract: every result is a pure function of
// (spec, Runner.Seed). Trials fan out over a worker pool, but trial t
// of point key p always draws from rng.ForkSeed(ForkSeed(seed, p), t),
// never from scheduling order — any worker count is bit-identical,
// pinned by golden tests. Long sweeps checkpoint each completed point
// to JSON and resume bit-identically (checkpoint.go).
//
// Error accounting: every point result carries the summed
// census.ErrorBudget of its trials — by the union bound, an upper
// bound on the probability that any trial of that point diverged from
// an exact process-P run, in the additive-probability currency of the
// paper's Lemma 3. Estimates and their approximation mass travel
// together. With a non-zero LawQuant the budget additionally carries
// each phase's law-level quantization certificate ℓ·d_TV(q, q̂)·sens —
// the TV bound on substituting the cached law, reported separately as
// QuantBudget (DESIGN.md §2).
//
// Hot loop: each worker goroutine owns one core.CensusRunner whose
// census engine is reused (Reset, not re-New) across every trial of
// every point, and all workers share one Stage-2 law cache
// (Runner.Cache, or a per-sweep private one) — reuse is invisible in
// results by the engine's Reset contract, so the determinism
// guarantees above survive unchanged.
//
// The package declares the nrlint determinism contract: results are
// a pure function of (spec, seed) at any worker count, enforced by
// `make lint` (see DESIGN.md "Statically enforced contracts").
//
//nrlint:deterministic
package sweep

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/checked"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/resilience"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/stats"
)

// DefaultZ is the Wilson-interval normal quantile used when
// Runner.Z is zero: two-sided 95%.
const DefaultZ = 1.96

// Point is one fully materialized parameter point: everything a
// worker needs to evaluate it, independent of the rest of the sweep.
type Point struct {
	// Index is the point's position in its sweep's deterministic
	// enumeration; it keys the point's random stream and its
	// checkpoint entry.
	Index int `json:"index"`
	// Matrix names the channel family (uniform | binary | identity |
	// cycle | reset); ChannelEps is its parameter and K its dimension.
	Matrix     string  `json:"matrix"`
	K          int     `json:"k"`
	ChannelEps float64 `json:"channel_eps"`
	// Delta is the initial plurality bias: opinion 0 leads every rival
	// by ⌊Delta·N⌋ nodes in a fully opinionated start. Delta = 0 means
	// rumor spreading from a single source holding opinion 0.
	Delta float64 `json:"delta"`
	// N is the population size.
	N int64 `json:"n"`
	// Engine selects the trial engine: "" or "census" for the
	// aggregate census engine (the sweep default — it is what makes
	// dense sweeps affordable), or "O" | "B" | "P" for per-node
	// cross-checks at small N.
	Engine string `json:"engine,omitempty"`
	// Trials is the point's trial budget.
	Trials int `json:"trials"`
	// Params are the protocol constants the point runs under
	// (Params.Epsilon is the protocol's assumed ε, which the threshold
	// sweeps deliberately decouple from ChannelEps).
	Params core.Params `json:"params"`
}

// PointResult is one evaluated point: the success-probability
// estimate with its Wilson interval, the mean rounds to all-correct,
// and the point's accumulated Lemma-3 budget (truncation plus the
// law-level quantization certificate, the latter also broken out).
type PointResult struct {
	Point Point `json:"point"`
	// Trials is the number of trials actually run (Wilson early
	// stopping may use fewer than Point.Trials).
	Trials    int `json:"trials"`
	Successes int `json:"successes"`
	// SuccessRate is Successes/Trials; WilsonLo/WilsonHi bound it at
	// the runner's confidence level.
	SuccessRate float64 `json:"success_rate"`
	WilsonLo    float64 `json:"wilson_lo"`
	WilsonHi    float64 `json:"wilson_hi"`
	// MeanRounds is the mean round count at which all nodes first held
	// the correct opinion, over all trials (a trial that never got
	// there contributes its full scheduled length).
	MeanRounds float64 `json:"mean_rounds"`
	// ErrorBudget is the summed census.ErrorBudget over the point's
	// trials: a union-bound on the probability that any of them
	// diverged from exact process P (zero for per-node engines).
	ErrorBudget float64 `json:"error_budget"`
	// QuantBudget is the quantization leg of ErrorBudget: the summed
	// per-phase law-level certificates over the point's trials (zero
	// for exact runs).
	QuantBudget float64 `json:"quant_budget,omitempty"`
	// Error, when non-nil, marks the point quarantined: a trial
	// panicked, the statistics above are zeroed, and the run went on
	// without it. Quarantine records persist in the checkpoint for
	// accounting, but a resume recomputes them (checkpoint.get treats
	// them as misses). Trial errors — bad specs, bad knob values —
	// never quarantine: they abort the run up front as always.
	Error *PointError `json:"error,omitempty"`
}

// PointError is a quarantined point's record: which trial sank it,
// whether the failure was permanent, and the final error text.
type PointError struct {
	Trial     int    `json:"trial"`
	Permanent bool   `json:"permanent,omitempty"`
	Msg       string `json:"msg"`
}

func (e *PointError) Error() string { return e.Msg }

// Runner executes sweeps. The zero value runs on GOMAXPROCS workers
// at 95% confidence with seed 0 and no checkpointing.
type Runner struct {
	// Seed drives every random choice of the sweep.
	Seed uint64
	// Workers bounds trial parallelism; 0 means GOMAXPROCS. Results
	// are bit-identical for every worker count.
	Workers int
	// Z is the Wilson-interval quantile (0 = DefaultZ).
	Z float64
	// Checkpoint, when non-empty, is a JSON file updated after every
	// completed point; an existing compatible file resumes the sweep
	// (same spec and seed required), a mismatched one is an error.
	Checkpoint string
	// Cache, when non-nil, is the Stage-2 law cache every quantized
	// census trial of the sweep draws from; nil gives each sweep a
	// private cache. Sharing one cache across sweeps is sound and
	// deterministic — entries are pure functions of their (q̂, ℓ, tol)
	// key — and lets callers read aggregate hit statistics.
	Cache *census.LawCache
	// Obs carries the observability sinks threaded through workers and
	// their engines (see Instrumentation). The zero value disables all
	// instrumentation; per the write-only contract, results are
	// bit-identical either way. Obs deliberately lives on the Runner,
	// not in Point/Params, so it never enters checkpoint identity.
	Obs Instrumentation
	// Shard restricts the run to its index-residue slice of the sweep
	// (see Shard); the zero value runs everything. The shard is part of
	// checkpoint identity, and Merge recombines shard checkpoints into
	// the byte-identical single-host journal.
	Shard Shard
	// Sleeper waits out the backoff between checkpoint I/O retries
	// (resilience.DefaultPolicy). nil computes the delays without
	// waiting — the test configuration; harnesses inject
	// obs.WallSleeper{}. Backoff jitter is drawn from forks of Seed, so
	// retried runs stay bit-identical.
	Sleeper obs.Sleeper

	// trial runs one trial; nil means runTrial. Tests substitute a
	// panicking trial to reach quarantine.
	trial func(p Point, nm *noise.Matrix, counts []int64, t int, r *rng.Rand, cr *core.CensusRunner, mm *model.Metrics) trialOut
}

// breakAfter is the quarantine streak that trips the run-level
// breaker: a systemic fault (every point panicking) aborts loudly
// instead of quarantining the whole sweep.
const breakAfter = 8

// retryPolicy is the checkpoint I/O retry policy: DefaultPolicy with
// the runner's sleeper and the retry/backoff metrics on OnBackoff.
func (r Runner) retryPolicy() resilience.Policy {
	p := resilience.DefaultPolicy()
	p.Sleeper = r.Sleeper
	if m := r.Obs.Metrics; m != nil {
		p.OnBackoff = func(_ int, delay time.Duration) {
			m.retries.Inc()
			m.backoff.Observe(delay.Seconds())
		}
	}
	return p
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (r Runner) z() float64 {
	if r.Z > 0 {
		return r.Z
	}
	return DefaultZ
}

// defaultPointParams derives a point's protocol constants: the
// documented defaults for the assumed ε, with the Stage-2 constant c
// overridden when non-zero (the ℓ axis of a grid) and the census
// engine's law-quantization and truncation-tolerance knobs carried
// through (0 = exact / default; see core.Params).
func defaultPointParams(protoEps, c, lawQuant, censusTol float64) core.Params {
	params := core.DefaultParams(protoEps)
	if c > 0 {
		params.C = c
	}
	params.LawQuant = lawQuant
	params.CensusTol = censusTol
	return params
}

// newTrialRunners builds one reusable census runner per worker, all
// sharing one law cache: the allocation-free hot path of the sweep —
// a worker's engine (buffers, evaluator) persists across every trial
// of every point it executes, and quantized law evaluations are
// shared across workers. Reuse is invisible in results (the engine
// Reset contract), so worker-count determinism is preserved.
func (r Runner) newTrialRunners(workers int) []*core.CensusRunner {
	cache := r.Cache
	if cache == nil {
		cache = census.NewLawCache()
	}
	out := make([]*core.CensusRunner, workers)
	for i := range out {
		out[i] = core.NewCensusRunner(cache)
		out[i].SetObs(r.Obs.Census, r.Obs.Tracer, r.Obs.Clock)
	}
	return out
}

// BuildMatrix constructs a named noise matrix: uniform | binary |
// identity | cycle | reset, with parameter eps (identity ignores it).
// Every sweep mode resolves matrix names through here; cmd/noisyrumor
// keeps a parallel facade-level switch over the same family names, so
// a new family must be added to both.
func BuildMatrix(name string, k int, eps float64) (*noise.Matrix, error) {
	switch name {
	case "uniform":
		return noise.Uniform(k, eps)
	case "binary":
		return noise.FHKBinary(eps)
	case "identity":
		return noise.Identity(k)
	case "cycle":
		return noise.DominantCycle(k, eps)
	case "reset":
		return noise.Reset(k, eps)
	default:
		return nil, fmt.Errorf("sweep: unknown matrix %q (have uniform, binary, identity, cycle, reset)", name)
	}
}

// InitialCounts returns a point's initial opinion census: a fully
// opinionated population in which opinion 0 leads every rival by
// ⌊delta·n⌋ nodes (the Definition-1 bias δ), or a single opinion-0
// source when delta = 0. Opinion 0 is always the designated correct
// opinion.
func InitialCounts(n int64, k int, delta float64) ([]int64, error) {
	if delta < 0 || delta >= 1 {
		return nil, fmt.Errorf("sweep: initial bias δ=%v outside [0,1)", delta)
	}
	counts := make([]int64, k)
	if delta == 0 {
		counts[0] = 1
		return counts, nil
	}
	lead := int64(delta * float64(n))
	rest := n - lead
	per := rest / int64(k)
	for i := range counts {
		counts[i] = per
	}
	//nrlint:allow overflow -- lead ≤ n (δ ≤ 1) and per·k ≤ rest ≤ n, so counts[0] ends at per+lead+remainder ≤ n
	counts[0] += lead + (rest - per*int64(k))
	return counts, nil
}

// trialOut is one trial's record.
type trialOut struct {
	correct bool
	rounds  int
	budget  float64
	qbudget float64
	err     error
}

// runTrial executes trial t of the point on r's stream, which already
// encodes t (only Runner.trial substitutes read the index). counts is
// the point's initial census (shared read-only across the point's
// trials), cr the executing worker's reusable census runner, and mm
// the optional model metric bundle bound to per-node engines
// (write-only; nil disables it).
func runTrial(p Point, nm *noise.Matrix, counts []int64, t int, r *rng.Rand, cr *core.CensusRunner, mm *model.Metrics) trialOut {
	if p.Engine == "" || p.Engine == "census" {
		res, err := cr.Run(p.N, nm, p.Params, counts, 0, false, r)
		if err != nil {
			return trialOut{err: err}
		}
		rounds := res.Rounds
		if res.FirstAllCorrect >= 0 {
			rounds = res.FirstAllCorrect
		}
		return trialOut{correct: res.Correct, rounds: rounds, budget: res.ErrorBudget, qbudget: res.QuantBudget}
	}
	return runPerNodeTrial(p, nm, counts, r, mm)
}

// runPerNodeTrial is the cross-check path: the same point on a
// per-node engine (O, B or P).
func runPerNodeTrial(p Point, nm *noise.Matrix, counts []int64, r *rng.Rand, mm *model.Metrics) trialOut {
	proc, err := model.ProcessByName(p.Engine)
	if err != nil {
		return trialOut{err: err}
	}
	if proc == model.ProcessCensus {
		return trialOut{err: fmt.Errorf("sweep: census engine reached the per-node path")}
	}
	nInt, ok := checked.Int(p.N)
	if !ok {
		return trialOut{err: fmt.Errorf("sweep: n=%d exceeds the per-node engines' range; use the census engine", p.N)}
	}
	narrow := make([]int, len(counts))
	for i, c := range counts {
		v, ok := checked.Int(c)
		if !ok {
			return trialOut{err: fmt.Errorf("sweep: count %d exceeds the per-node engines' range", c)}
		}
		narrow[i] = v
	}
	var initial []model.Opinion
	if p.Delta == 0 {
		initial, err = model.InitRumor(nInt, p.K, 0)
	} else {
		initial, err = model.InitPlurality(nInt, narrow)
	}
	if err != nil {
		return trialOut{err: err}
	}
	eng, err := model.NewEngine(nInt, nm, proc, r)
	if err != nil {
		return trialOut{err: err}
	}
	mm.Bind(eng, proc.String())
	proto, err := core.New(eng, p.Params)
	if err != nil {
		return trialOut{err: err}
	}
	res, err := proto.Run(initial, 0)
	if err != nil {
		return trialOut{err: err}
	}
	rounds := res.Rounds
	if res.FirstAllCorrect >= 0 {
		rounds = res.FirstAllCorrect
	}
	return trialOut{correct: res.Correct, rounds: rounds}
}

// resilientTrial runs trial t of point p on its stream
// rng.New(ForkSeed(pointSeed, t)) with panic containment. A panic is
// Permanent and quarantines the point at once: a retry would replay
// the same stream on a reset engine and panic the same way.
func (r Runner) resilientTrial(p Point, nm *noise.Matrix, counts []int64, t int, pointSeed uint64,
	cr *core.CensusRunner) (out trialOut) {

	defer func() {
		if rec := recover(); rec != nil {
			out = trialOut{err: resilience.Permanent(fmt.Errorf("sweep: point %d trial %d panicked: %v", p.Index, t, rec))}
		}
	}()
	run := r.trial
	if run == nil {
		run = runTrial
	}
	return run(p, nm, counts, t, rng.New(rng.ForkSeed(pointSeed, uint64(t))), cr, r.Obs.Model)
}

// parallelTrials runs trials start..start+count−1 of point p (channel
// nm, initial census counts) over a bounded worker pool, in trial
// order. Trial t's stream is ForkSeed(pointSeed, t) — a pure function
// of position, so any worker count yields identical results. Worker w
// executes its trials through runners[w], whose engine is reused (and
// reset) per trial; which worker runs which trial does not affect
// results — the per-worker trial and busy-time telemetry records the
// (scheduling-dependent) split without ever feeding back into it.
// Each trial runs under resilientTrial, which contains panics.
func (r Runner) parallelTrials(runners []*core.CensusRunner, p Point, nm *noise.Matrix, counts []int64,
	start, count int, pointSeed uint64) []trialOut {

	out := make([]trialOut, count)
	if count == 0 {
		return out
	}
	workers := len(runners)
	if workers > count {
		workers = count
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, cr *core.CensusRunner) {
			defer wg.Done()
			// Capture the worker-labeled children once per goroutine so
			// the per-trial writes skip the label lookup.
			var workerTrials *obs.Counter
			var workerBusy *obs.Gauge
			m := r.Obs.Metrics
			if m != nil {
				lbl := strconv.Itoa(w)
				workerTrials = m.workerTrials.With(lbl)
				workerBusy = m.workerBusy.With(lbl)
			}
			clk := r.Obs.Clock
			for t := range next {
				t0 := obs.Now(clk)
				out[t-start] = r.resilientTrial(p, nm, counts, t, pointSeed, cr)
				if m != nil {
					m.trials.Inc()
					workerTrials.Inc()
					workerBusy.Add(obs.SinceSeconds(clk, t0))
				}
				if tr := r.Obs.Tracer; tr != nil {
					tr.Event("trial",
						obs.F("trial", t),
						obs.F("worker", w),
						obs.F("dur_ns", obs.Now(clk)-t0))
				}
			}
		}(w, runners[w])
	}
	for t := start; t < start+count; t++ {
		next <- t
	}
	close(next)
	wg.Wait()
	return out
}

// evalPoint evaluates a full point: all Point.Trials trials, fanned
// over the given per-worker runners.
func (r Runner) evalPoint(p Point, runners []*core.CensusRunner) (PointResult, error) {
	nm, err := BuildMatrix(p.Matrix, p.K, p.ChannelEps)
	if err != nil {
		return PointResult{}, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	counts, err := InitialCounts(p.N, p.K, p.Delta)
	if err != nil {
		return PointResult{}, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	pointSeed := rng.ForkSeed(r.Seed, uint64(p.Index))
	return r.aggregate(p, r.parallelTrials(runners, p, nm, counts, 0, p.Trials, pointSeed))
}

// evalPointAdaptive evaluates a point in batches, stopping early once
// the Wilson interval of the running success rate excludes 1/2 —
// the per-point trial-budget economy of the bisection mode. The batch
// schedule is a pure function of (Trials, batch), never of worker
// count, so early stopping preserves determinism.
func (r Runner) evalPointAdaptive(p Point, batch int, runners []*core.CensusRunner) (PointResult, error) {
	nm, err := BuildMatrix(p.Matrix, p.K, p.ChannelEps)
	if err != nil {
		return PointResult{}, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	counts, err := InitialCounts(p.N, p.K, p.Delta)
	if err != nil {
		return PointResult{}, fmt.Errorf("sweep: point %d: %w", p.Index, err)
	}
	if batch <= 0 {
		batch = p.Trials/8 + 1
		if batch < 8 {
			batch = 8
		}
	}
	pointSeed := rng.ForkSeed(r.Seed, uint64(p.Index))
	var outs []trialOut
	for len(outs) < p.Trials {
		count := batch
		if rem := p.Trials - len(outs); count > rem {
			count = rem
		}
		outs = append(outs, r.parallelTrials(runners, p, nm, counts, len(outs), count, pointSeed)...)
		res, err := r.aggregate(p, outs)
		if err != nil {
			return PointResult{}, err
		}
		if res.Error != nil {
			return res, nil // quarantined: no point running more batches
		}
		if res.WilsonLo > 0.5 || res.WilsonHi < 0.5 {
			if m := r.Obs.Metrics; m != nil && len(outs) < p.Trials {
				m.earlyStops.Inc()
			}
			return res, nil // resolved: provably off 1/2 at this confidence
		}
	}
	return r.aggregate(p, outs)
}

// aggregate folds trial outcomes into a PointResult. A trial carrying
// a classified error (a contained panic) quarantines the whole point:
// the statistics are zeroed, Error records the failure, and the
// caller's run continues without it. Unclassified errors are
// spec/config mistakes and abort the run as always.
func (r Runner) aggregate(p Point, outs []trialOut) (PointResult, error) {
	res := PointResult{Point: p, Trials: len(outs)}
	sumRounds := 0.0
	for i, o := range outs {
		if o.err != nil {
			if resilience.Classified(o.err) {
				return PointResult{Point: p, Error: &PointError{
					Trial:     i,
					Permanent: resilience.IsPermanent(o.err),
					Msg:       o.err.Error(),
				}}, nil
			}
			return PointResult{}, fmt.Errorf("sweep: point %d trial %d: %w", p.Index, i, o.err)
		}
		if o.correct {
			res.Successes++
		}
		sumRounds += float64(o.rounds)
		res.ErrorBudget += o.budget
		res.QuantBudget += o.qbudget
	}
	res.SuccessRate = float64(res.Successes) / float64(res.Trials)
	res.MeanRounds = sumRounds / float64(res.Trials)
	lo, hi, err := stats.Wilson(res.Successes, res.Trials, r.z())
	if err != nil {
		return PointResult{}, err
	}
	res.WilsonLo, res.WilsonHi = lo, hi
	return res, nil
}
