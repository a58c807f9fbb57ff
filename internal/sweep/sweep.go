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
//   - Grid — the cartesian fan (matrix, k, ε, δ, n, c) committed
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
// Hot loop: each RunGrid, RunScaling or RunBisect call runs one trial
// pool of long-lived worker goroutines. Each worker owns one
// core.CensusRunner whose census engine is reused (Reset, not re-New)
// across every trial of every point, and all workers share one
// Stage-2 law cache (Runner.Cache, or a per-sweep private one). Grids
// and scaling curves keep several points per worker in flight, so the
// next points' trials fill the workers while the oldest point's
// stragglers finish, and commit results strictly in point order; a
// bisection's evaluations run one after another on the same pool.
// Reuse and overlap are invisible in results (the engine's Reset
// contract, trial slots keyed by index), so the determinism guarantees
// above survive unchanged.
//
// Failure handling (DESIGN.md §2 "Failure model"): checkpoint I/O
// that fails transiently is retried with seeded backoff (retry), a
// trial that panics quarantines its point, and breakAfter consecutive
// quarantines abort the run. None of it reaches a result.
//
// The package declares the nrlint determinism contract: results are
// a pure function of (spec, seed) at any worker count, enforced by
// `make lint` (see DESIGN.md "Statically enforced contracts").
//
//nrlint:deterministic
package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/checked"
	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/obs"
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
	// Sleeper waits out the backoff between checkpoint I/O retries. nil
	// computes the delays without waiting — the test configuration;
	// harnesses inject obs.WallSleeper{}. Backoff jitter is drawn from
	// forks of Seed, so retried runs stay bit-identical.
	Sleeper obs.Sleeper

	// fault, when non-nil, runs before each trial. Tests make it panic
	// to reach quarantine or return an error to reach the abort.
	fault func(point, trial int) error
	// journal wraps the checkpoint's append handle; nil keeps the file.
	// Tests substitute a failing writer to reach the write abort.
	journal func(io.WriteCloser) io.WriteCloser
}

// breakAfter is the quarantine streak that trips the run-level
// breaker: a systemic fault (every point panicking) aborts loudly
// instead of quarantining the whole sweep.
const breakAfter = 8

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

// windowPerWorker is how many points RunGrid and RunScaling keep in
// flight per pool worker: the next points' trials keep every worker
// busy while the oldest point's stragglers finish, and the bound keeps
// the results held for in-order commit small. On grid-k2 at two
// workers (2-vCPU VM), 2, 4, 8 and 16 cost the same CPU, and the
// CLI's wall time fell from 83 to 78, 73 and 71 ms (DESIGN.md §4).
const windowPerWorker = 8

// batch is trials start..start+len(out)−1 of one point, in flight on a
// trialPool. Workers claim trials through next and write out[t−start],
// a slot keyed by the trial index, so which worker ran which trial
// never reaches the results.
type batch struct {
	point     int        // the point's index
	trial     core.Trial // what every trial of the point runs, shared read-only
	pointSeed uint64
	start     int
	out       []trialOut

	next    atomic.Int64  // offset of the next unclaimed trial
	pending atomic.Int64  // trials not yet finished
	done    chan struct{} // closed by the worker that finishes the last trial
	// startNS is the obs clock reading at the start of the point's trial
	// 0, set by the worker that runs it (in the batch holding trial 0)
	// before done closes.
	startNS int64
}

// trialPool runs batches' trials on long-lived workers, one pool per
// RunGrid, RunScaling or RunBisect call. Each worker owns one
// core.CensusRunner whose engine is reused (and reset) across every
// trial it runs and writes the worker's own shard of the census
// metrics (census.Metrics.Worker), and all workers share one Stage-2
// law cache. Reuse is invisible in results (the engine's Reset
// contract).
type trialPool struct {
	r       Runner
	workers int
	// jobs carries one copy of a batch per worker that should join it.
	// Its buffer holds one copy per point of a full window; a sender
	// that finds it full waits for a worker that is finishing a trial.
	jobs    chan *batch
	stopped atomic.Bool // set by stop: workers claim no further trials
	wg      sync.WaitGroup
}

// startPool starts r.workers() pool workers. The caller must call stop.
func (r Runner) startPool() *trialPool {
	cache := r.Cache
	if cache == nil {
		cache = census.NewLawCache()
	}
	workers := r.workers()
	pool := &trialPool{r: r, workers: workers, jobs: make(chan *batch, windowPerWorker*workers)}
	for w := 0; w < workers; w++ {
		cr := core.NewCensusRunner(cache)
		cr.SetObs(r.Obs.Census.Worker(w), r.Obs.Tracer, r.Obs.Clock)
		pool.wg.Add(1)
		go pool.work(w, cr)
	}
	return pool
}

// stop ends the pool: trials not yet claimed are skipped, and stop
// returns once every worker has exited. On success every batch has
// already finished; on an abort this drains what is in flight.
func (pool *trialPool) stop() {
	pool.stopped.Store(true)
	close(pool.jobs)
	pool.wg.Wait()
}

// work is worker w's loop: it claims trials of each batch it receives
// until the batch has none left, running them through cr. The
// per-worker trial and busy-time telemetry records the
// (scheduling-dependent) split without ever feeding back into it.
func (pool *trialPool) work(w int, cr *core.CensusRunner) {
	defer pool.wg.Done()
	r := pool.r
	// Capture the worker-labeled children once so the per-trial writes
	// skip the label lookup.
	var workerTrials *obs.Counter
	var workerBusy *obs.Gauge
	m := r.Obs.Metrics
	if m != nil {
		lbl := strconv.Itoa(w)
		workerTrials = m.workerTrials.With(lbl)
		workerBusy = m.workerBusy.With(lbl)
	}
	clk := r.Obs.Clock
	for b := range pool.jobs {
		for !pool.stopped.Load() {
			i, ok := checked.Int(b.next.Add(1) - 1)
			if !ok || i >= len(b.out) {
				break
			}
			t := b.start + i
			t0 := obs.Now(clk)
			if t == 0 {
				b.startNS = t0
			}
			b.out[i] = r.resilientTrial(b.point, b.trial, t, b.pointSeed, cr)
			if m != nil {
				m.trials.Inc()
				workerTrials.Inc()
				workerBusy.Add(obs.SinceSeconds(clk, t0))
			}
			if tr := r.Obs.Tracer; tr != nil {
				tr.Event("trial",
					obs.F("point", b.point),
					obs.F("trial", t),
					obs.F("worker", w),
					obs.F("dur_ns", obs.Now(clk)-t0))
			}
			if b.pending.Add(-1) == 0 {
				close(b.done)
			}
		}
	}
}

// pointTrial resolves what every trial of p runs, once per point: its
// engine, its channel and its initial census, opinion 0 correct.
func pointTrial(p Point) (core.Trial, error) {
	nm, err := BuildMatrix(p.Matrix, p.K, p.ChannelEps)
	if err != nil {
		return core.Trial{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	counts, err := InitialCounts(p.N, p.K, p.Delta)
	if err != nil {
		return core.Trial{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	proc, err := pointEngine(p.Engine)
	if err != nil {
		return core.Trial{}, fmt.Errorf("point %d: %w", p.Index, err)
	}
	return core.Trial{Engine: proc, N: p.N, Noise: nm, Params: p.Params, Counts: counts}, nil
}

// startBatch submits trials start..start+count−1 of point p (inputs
// in) to the pool: one copy of the batch per worker that can take a
// trial of it. Trial t's stream is ForkSeed(ForkSeed(Seed, p.Index), t),
// a pure function of position, so any worker count yields identical
// results. count must be ≥ 1.
func (r Runner) startBatch(pool *trialPool, p Point, in core.Trial, start, count int) *batch {
	b := &batch{
		point: p.Index, trial: in,
		pointSeed: rng.ForkSeed(r.Seed, uint64(p.Index)),
		start:     start,
		out:       make([]trialOut, count),
		done:      make(chan struct{}),
	}
	b.pending.Store(int64(count))
	for i := min(pool.workers, count); i > 0; i-- {
		pool.jobs <- b
	}
	return b
}

// BuildMatrix constructs a named noise matrix: uniform | binary |
// identity | cycle | reset, with parameter eps (identity ignores it).
// Every sweep mode and cmd/noisyrumor resolve matrix names through
// here.
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
		return nil, fmt.Errorf("unknown matrix %q (have uniform, binary, identity, cycle, reset)", name)
	}
}

// checkPoints resolves what evaluating pts would resolve before their
// first trial, so a bad spec fails before any side effect instead of at
// its first point: each distinct (matrix, k, ε) through BuildMatrix,
// each distinct (n, k, δ) through InitialCounts, each distinct
// (n, params) through core.NewSchedule, and each engine name. Points
// share these heavily (grid-k2's 1,344 points hold 24 matrices), so
// each is resolved once.
func checkPoints(pts []Point) error {
	type matrixKey struct {
		name string
		k    int
		eps  float64
	}
	type countsKey struct {
		n     int64
		k     int
		delta float64
	}
	type scheduleKey struct {
		n      int64
		params core.Params
	}
	matrices := map[matrixKey]bool{}
	counts := map[countsKey]bool{}
	schedules := map[scheduleKey]bool{}
	engines := map[string]bool{}
	for _, p := range pts {
		var err error
		if firstSeen(matrices, matrixKey{p.Matrix, p.K, p.ChannelEps}) {
			_, err = BuildMatrix(p.Matrix, p.K, p.ChannelEps)
		}
		if err == nil && firstSeen(counts, countsKey{p.N, p.K, p.Delta}) {
			_, err = InitialCounts(p.N, p.K, p.Delta)
		}
		if err == nil && firstSeen(schedules, scheduleKey{p.N, p.Params}) {
			_, err = core.NewSchedule(p.N, p.Params)
		}
		if err == nil && firstSeen(engines, p.Engine) {
			_, err = pointEngine(p.Engine)
		}
		if err != nil {
			return fmt.Errorf("point %d: %w", p.Index, err)
		}
	}
	return nil
}

// firstSeen adds key to seen and reports whether it was not there yet.
func firstSeen[K comparable](seen map[K]bool, key K) bool {
	if seen[key] {
		return false
	}
	seen[key] = true
	return true
}

// pointEngine resolves a point's engine name: the census engine ("" or
// "census") or a per-node cross-check engine (O, B or P).
func pointEngine(name string) (model.Process, error) {
	if name == "" || name == "census" {
		return model.ProcessCensus, nil
	}
	proc, err := model.ProcessByName(name)
	if err == nil && proc == model.ProcessCensus {
		err = fmt.Errorf("engine %q: spell the census engine \"census\" or leave it empty", name)
	}
	return proc, err
}

// InitialCounts returns a point's initial opinion census: a fully
// opinionated population in which opinion 0 leads every rival by
// ⌊delta·n⌋ nodes (the Definition-1 bias δ), or a single opinion-0
// source when delta = 0. Opinion 0 is always the designated correct
// opinion.
func InitialCounts(n int64, k int, delta float64) ([]int64, error) {
	if delta < 0 || delta >= 1 {
		return nil, fmt.Errorf("initial bias δ=%v outside [0,1)", delta)
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

// resilientTrial runs trial t of the indexed point (inputs in) on its
// stream rng.New(ForkSeed(pointSeed, t)) with panic containment: a
// census trial on cr, the executing worker's reusable runner, a
// per-node cross-check with the model metric bundle bound. A panic
// becomes the point's quarantine record, a *PointError, at once: a
// retry would replay the same stream on a reset engine and panic the
// same way.
func (r Runner) resilientTrial(point int, in core.Trial, t int, pointSeed uint64, cr *core.CensusRunner) (out trialOut) {
	defer func() {
		if rec := recover(); rec != nil {
			out = trialOut{err: &PointError{Trial: t, Permanent: true, Msg: fmt.Sprintf("point %d trial %d panicked: %v", point, t, rec)}}
		}
	}()
	if r.fault != nil {
		if err := r.fault(point, t); err != nil {
			return trialOut{err: err}
		}
	}
	res, err := core.RunTrial(in, rng.New(rng.ForkSeed(pointSeed, uint64(t))), cr, r.Obs.Model)
	if err != nil {
		return trialOut{err: err}
	}
	return trialOut{correct: res.Correct, rounds: res.RoundsToAllCorrect(), budget: res.ErrorBudget, qbudget: res.QuantBudget}
}

// inflight is one owned point between admission and commit: running
// (b), failed to resolve (err), or else resumed from the journal (pr).
type inflight struct {
	p   Point
	b   *batch
	err error
	pr  PointResult
}

// runPoints evaluates the points of pts that the runner's shard owns
// and hands each result to commit strictly in index order — the
// shared loop of RunGrid and RunScaling. One goroutine admits points
// and commits them; a trial pool runs the trials. Admitting a point
// decodes its journal entry once (a resumed point runs nothing) or
// resolves its inputs and submits its trials, and up to
// windowPerWorker points per worker are admitted ahead of the oldest
// uncommitted one. Committing waits for the point's trials, then
// aggregates, appends to the journal, records metrics and counts the
// quarantine streak, in that order, so journal bytes, quarantine
// records, breaker trips and the first reported error are those of a
// point-by-point run. A breaker trip reads where(p) as its prefix.
// Any error returns at once: stop skips the trials still queued and
// waits for every worker, so no goroutine outlives the call.
func (r Runner) runPoints(pts []Point, ck *checkpoint, where func(Point) string, commit func(Point, PointResult)) error {
	pool := r.startPool()
	defer pool.stop()
	window := windowPerWorker * pool.workers
	streak, quarantined := 0, 0 // quarantined points: consecutive, and in all
	queue := make([]inflight, 0, window)
	next := 0
	for {
		for ; len(queue) < window && next < len(pts); next++ {
			if p := pts[next]; r.Shard.Owns(p.Index) {
				queue = append(queue, r.admit(pool, ck, p))
			}
		}
		if len(queue) == 0 {
			return nil
		}
		head := queue[0]
		queue = append(queue[:0], queue[1:]...)
		if head.err != nil {
			return head.err
		}
		pr, startNS, fresh := head.pr, int64(0), head.b != nil
		if fresh {
			<-head.b.done
			var err error
			if pr, err = r.aggregate(head.p, head.b.out); err != nil {
				return err
			}
			if err := r.putCheckpoint(ck, head.p.Index, pr); err != nil {
				return err
			}
			startNS = head.b.startNS
		}
		r.observePoint(pr, startNS, fresh)
		if pr.Error == nil {
			streak = 0
		} else {
			streak++
			quarantined++
			if streak == breakAfter {
				return fmt.Errorf("%s: breaker open after %d consecutive failures (%d total)", where(head.p), streak, quarantined)
			}
		}
		commit(head.p, pr)
	}
}

// admit takes point p into the window: its journal entry when ck holds
// a usable one, otherwise its trials, submitted to the pool.
func (r Runner) admit(pool *trialPool, ck *checkpoint, p Point) inflight {
	if pr, ok := ck.get(p.Index); ok {
		return inflight{p: p, pr: pr}
	}
	in, err := pointTrial(p)
	if err != nil {
		return inflight{p: p, err: err}
	}
	return inflight{p: p, b: r.startBatch(pool, p, in, 0, p.Trials)}
}

// evalPointAdaptive evaluates a point in batches on the pool, stopping
// early once the Wilson interval of the running success rate excludes
// 1/2 — the per-point trial-budget economy of the bisection mode. The
// batch schedule is a pure function of (Trials, batch), never of
// worker count, so early stopping preserves determinism. It also
// returns the obs clock reading at the start of the point's trial 0.
func (r Runner) evalPointAdaptive(pool *trialPool, p Point, batchSize int) (PointResult, int64, error) {
	in, err := pointTrial(p)
	if err != nil {
		return PointResult{}, 0, err
	}
	if batchSize <= 0 {
		batchSize = p.Trials/8 + 1
		if batchSize < 8 {
			batchSize = 8
		}
	}
	var outs []trialOut
	var startNS int64
	for len(outs) < p.Trials {
		count := min(batchSize, p.Trials-len(outs))
		b := r.startBatch(pool, p, in, len(outs), count)
		<-b.done
		if len(outs) == 0 {
			startNS = b.startNS
		}
		outs = append(outs, b.out...)
		res, err := r.aggregate(p, outs)
		if err != nil {
			return PointResult{}, 0, err
		}
		if res.Error != nil {
			return res, startNS, nil // quarantined: no point running more batches
		}
		if res.WilsonLo > 0.5 || res.WilsonHi < 0.5 {
			if m := r.Obs.Metrics; m != nil && len(outs) < p.Trials {
				m.earlyStops.Inc()
			}
			return res, startNS, nil // resolved: provably off 1/2 at this confidence
		}
	}
	res, err := r.aggregate(p, outs)
	return res, startNS, err
}

// aggregate folds trial outcomes into a PointResult. A trial that
// panicked (its error is the *PointError quarantine record)
// quarantines the whole point: the statistics are zeroed, Error holds
// the record, and the caller's run continues without it. Any other
// trial error is a spec/config mistake and aborts the run as always.
func (r Runner) aggregate(p Point, outs []trialOut) (PointResult, error) {
	res := PointResult{Point: p, Trials: len(outs)}
	sumRounds := 0.0
	for i, o := range outs {
		if o.err != nil {
			var q *PointError
			if errors.As(o.err, &q) {
				return PointResult{Point: p, Error: q}, nil
			}
			return PointResult{}, fmt.Errorf("point %d trial %d: %w", p.Index, i, o.err)
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
