// Package sim is the experiment harness of the reproduction: a
// deterministic parallel trial runner, table rendering (text, markdown
// and CSV), and the registry of validation experiments E1–E22 defined
// in DESIGN.md §3, each of which checks one of the paper's claims
// (theorems, lemmas, examples or appendix discussions) against
// simulation or exact computation.
//
// Determinism contract: an experiment's output depends only on
// (Config.Seed, Config.Quick). Trials are distributed over a worker
// pool, but every trial's random stream is derived from the seed and
// the trial index alone (rng.ForkSeed), never from scheduling order.
package sim

import (
	"runtime"
	"sync"

	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every random choice of the experiment.
	Seed uint64
	// Workers bounds trial parallelism; 0 means GOMAXPROCS.
	Workers int
	// Quick shrinks population sizes and trial counts to CI scale.
	// Full-size runs are what EXPERIMENTS.md records.
	Quick bool
	// Backend names the model sampling backend every protocol trial
	// runs on ("loop", "batch", "parallel"; empty = loop). Experiments
	// that explicitly compare backends or processes ignore it.
	Backend string
	// Engine names the communication engine every protocol trial runs
	// on ("O", "B", "P", "census"; empty = O). "census" advances each
	// trial on the aggregate opinion-census engine (n-independent
	// per-phase cost; per-node memory observables report zero).
	// Experiments that explicitly compare engines ignore it.
	Engine string
	// Threads bounds the "parallel" backend's intra-phase worker count
	// per trial (0 = GOMAXPROCS; other backends ignore it). This is
	// orthogonal to Workers, which parallelizes across trials: small
	// populations amortize best across trials, huge single runs across
	// phase chunks.
	Threads int
	// LawQuant is the census engine's Stage-2 law quantization step η
	// (0 = exact; see core.Params.LawQuant). It applies to every
	// census-engine trial: protocol trials under Engine "census" and
	// the sweep-driven experiments (E21/E22), whose trials run on the
	// census engine regardless of Engine. The law-level certificate
	// is charged into every budget the experiments surface.
	LawQuant float64
	// CensusTol overrides the census engine's truncation tolerance
	// for the same trials (0 = default; see core.Params.CensusTol).
	CensusTol float64
	// Obs carries the suite's observability sinks (metrics registry,
	// NDJSON tracer, clock) into every trial and sweep the experiments
	// drive. The zero value disables instrumentation entirely; either
	// way results are bit-identical — the sinks are write-only
	// (DESIGN.md §2) and never feed back into any computation.
	Obs sweep.Instrumentation
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Parallel runs fn for trials 0..trials−1 on a bounded worker pool and
// returns the results in trial order. Each trial receives its own
// deterministic random stream derived from (seed, trial).
func Parallel[T any](cfg Config, seed uint64, trials int, fn func(trial int, r *rng.Rand) T) []T {
	out := make([]T, trials)
	if trials == 0 {
		return out
	}
	workers := cfg.workers()
	if workers > trials {
		workers = trials
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				out[t] = fn(t, rng.New(rng.ForkSeed(seed, uint64(t))))
			}
		}()
	}
	for t := 0; t < trials; t++ {
		next <- t
	}
	close(next)
	wg.Wait()
	return out
}

// pick returns full in full mode and quick in quick mode.
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}
