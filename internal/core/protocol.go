package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// PhaseStats records the system state at the end of one phase; the
// trace of these is what experiments E4 and E5 analyze.
type PhaseStats struct {
	// Stage is 1 or 2.
	Stage int
	// Phase is the phase index within the stage.
	Phase int
	// Rounds is the phase length.
	Rounds int
	// Opinionated is the number of nodes holding an opinion at phase
	// end (int64: census traces describe populations beyond int range
	// on 32-bit builds).
	Opinionated int64
	// Dist is the opinion distribution c at phase end (fractions of
	// all nodes, summing to the opinionated fraction).
	Dist []float64
	// Bias is Dist[correct] − max rival (Definition 1's δ toward the
	// correct opinion).
	Bias float64
	// ErrorBudget is the census engine's accumulated approximation
	// budget as of this phase end (census.Engine.ErrorBudget); zero for
	// the per-node engines, which sample their phase laws exactly.
	ErrorBudget float64
	// QuantBudget is the quantization leg of ErrorBudget as of this
	// phase end — the summed per-phase law-level certificates
	// (census.Engine.QuantBudget); zero for exact runs.
	QuantBudget float64
}

// Result is the outcome of one protocol execution.
type Result struct {
	// Winner is the unanimous final opinion, or model.Undecided when
	// the nodes did not reach consensus.
	Winner model.Opinion
	// Consensus reports whether all nodes ended with the same opinion.
	Consensus bool
	// Correct reports whether all nodes ended with the correct
	// opinion m.
	Correct bool
	// Rounds is the total number of communication rounds executed
	// (fixed by the schedule).
	Rounds int
	// FirstAllCorrect is the earliest end-of-phase round count at
	// which every node already held the correct opinion, or −1.
	FirstAllCorrect int
	// MaxCounter is the largest per-phase message count any node had
	// to store, the quantity behind the memory claim (E11).
	MaxCounter int
	// MemoryBits is k·⌈log₂(MaxCounter+1)⌉, the per-node counter
	// memory in bits implied by MaxCounter.
	MemoryBits int
	// Trace holds per-phase statistics when tracing was enabled.
	Trace []PhaseStats
}

// RoundsToAllCorrect is FirstAllCorrect, or the scheduled Rounds when
// the nodes never all held the correct opinion.
func (r Result) RoundsToAllCorrect() int {
	if r.FirstAllCorrect >= 0 {
		return r.FirstAllCorrect
	}
	return r.Rounds
}

// Protocol executes the two-stage protocol on a model engine.
type Protocol struct {
	engine *model.Engine
	params Params
	sched  Schedule
	trace  bool
	// threads is the per-phase worker count for the phase-end per-node
	// loops; it mirrors the engine's parallel-backend chunking and is 1
	// (serial, the historical code path) for every other backend.
	threads int

	ops        []model.Opinion
	sampleBuf  []int
	maxCounter int
}

// New builds a protocol runner. The schedule is derived from the
// engine's population size and the parameters.
func New(engine *model.Engine, params Params) (*Protocol, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil engine")
	}
	sched, err := NewSchedule(int64(engine.N()), params)
	if err != nil {
		return nil, err
	}
	if params.Threads < 0 {
		return nil, fmt.Errorf("core: Threads must be ≥ 0, got %d", params.Threads)
	}
	// A named backend in Params overrides whatever the engine was
	// built with; the empty string leaves the engine's choice alone.
	// Params.Threads rides along into the parallel backend.
	if params.Backend != "" {
		b, err := model.BackendByName(params.Backend)
		if err != nil {
			return nil, err
		}
		if pb, ok := b.(model.ParallelBackend); ok {
			pb.Threads = params.Threads
			b = pb
		}
		engine.SetBackend(b)
	} else if params.Threads > 0 {
		// No named backend, but an explicit thread count: apply it to an
		// engine pre-built with the parallel backend, so Params.Threads
		// pins the determinism key either way.
		if pb, ok := engine.Backend().(model.ParallelBackend); ok && pb.Threads != params.Threads {
			pb.Threads = params.Threads
			engine.SetBackend(pb)
		}
	}
	// The phase-end per-node loops (Stage-1 adoption, Stage-2
	// subsampling) parallelize exactly when the engine samples phases
	// in parallel; under loop/batch they stay serial and bit-identical
	// to the historical stream consumption.
	threads := 1
	if pb, ok := engine.Backend().(model.ParallelBackend); ok {
		threads = pb.EffectiveThreads(engine.N())
	}
	return &Protocol{
		engine:    engine,
		params:    params,
		sched:     sched,
		threads:   threads,
		ops:       make([]model.Opinion, engine.N()),
		sampleBuf: make([]int, engine.K()),
	}, nil
}

// SetTrace enables per-phase statistics collection.
func (p *Protocol) SetTrace(on bool) { p.trace = on }

// Run executes the full protocol from the given initial opinions
// (which are copied, not mutated) and reports the outcome relative to
// the correct opinion m.
func (p *Protocol) Run(initial []model.Opinion, correct model.Opinion) (Result, error) {
	n := p.engine.N()
	k := p.engine.K()
	if len(initial) != n {
		return Result{}, fmt.Errorf("core: %d initial opinions for %d nodes", len(initial), n)
	}
	if correct < 0 || int(correct) >= k {
		return Result{}, fmt.Errorf("core: correct opinion %d out of range [0,%d)", correct, k)
	}
	for i, o := range initial {
		if o != model.Undecided && (o < 0 || int(o) >= k) {
			return Result{}, fmt.Errorf("core: node %d has invalid opinion %d", i, o)
		}
	}
	copy(p.ops, initial)
	p.maxCounter = 0

	res := Result{FirstAllCorrect: -1}
	var trace []PhaseStats
	roundsDone := 0

	record := func(stage, phase, rounds int) {
		roundsDone += rounds
		if model.Consensus(p.ops, correct) && res.FirstAllCorrect < 0 {
			res.FirstAllCorrect = roundsDone
		}
		if !p.trace {
			return
		}
		counts, und := model.CountOpinions(p.ops, k)
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
		trace = append(trace, PhaseStats{
			Stage:       stage,
			Phase:       phase,
			Rounds:      rounds,
			Opinionated: int64(n - und),
			Dist:        c,
			Bias:        bias,
		})
	}

	// Stage 1.
	for j, rounds := range p.sched.Stage1 {
		if err := p.runStage1Phase(rounds); err != nil {
			return Result{}, err
		}
		record(1, j, rounds)
	}
	// Stage 2.
	for j, ph := range p.sched.Stage2 {
		if err := p.runStage2Phase(ph); err != nil {
			return Result{}, err
		}
		record(2, j, ph.Rounds)
	}

	res.Rounds = roundsDone
	res.Trace = trace
	res.MaxCounter = p.maxCounter
	res.MemoryBits = k * bits.Len(uint(p.maxCounter))
	if w, strict := unanimous(p.ops); strict {
		res.Winner = w
		res.Consensus = true
		res.Correct = w == correct
	} else {
		res.Winner = model.Undecided
	}
	return res, nil
}

// Opinions returns the current opinion vector (a copy).
func (p *Protocol) Opinions() []model.Opinion {
	return append([]model.Opinion(nil), p.ops...)
}

// runStage1Phase runs one Stage-1 phase: opinionated nodes push,
// undecided receivers adopt a u.a.r. received opinion at phase end.
func (p *Protocol) runStage1Phase(rounds int) error {
	res, err := p.engine.RunPhase(p.ops, rounds)
	if err != nil {
		return err
	}
	p.noteCounters(res)
	k := res.K
	if p.threads > 1 {
		p.forEachChunk(func(lo, hi int, r *rng.Rand) {
			for u := lo; u < hi; u++ {
				if p.ops[u] != model.Undecided || res.Total[u] == 0 {
					continue
				}
				p.ops[u] = pickProportional(r, res.Counts[u*k:(u+1)*k], int(res.Total[u]))
			}
		})
		return nil
	}
	r := p.engine.Rand()
	for u := range p.ops {
		if p.ops[u] != model.Undecided || res.Total[u] == 0 {
			continue
		}
		// Choosing u.a.r. among the phase's received messages
		// (counting multiplicities) is exactly a draw proportional to
		// the per-opinion counts. The paper implements this with
		// reservoir sampling over the stream; over counts, one
		// weighted draw is the same distribution.
		p.ops[u] = pickProportional(r, res.Counts[u*k:(u+1)*k], int(res.Total[u]))
	}
	return nil
}

// runStage2Phase runs one Stage-2 phase: everyone pushes; nodes with
// at least SampleSize received messages adopt the majority of a
// uniform sample of SampleSize of them (ties u.a.r.).
func (p *Protocol) runStage2Phase(ph Stage2Phase) error {
	res, err := p.engine.RunPhase(p.ops, ph.Rounds)
	if err != nil {
		return err
	}
	p.noteCounters(res)
	k := res.K
	if p.threads > 1 {
		p.forEachChunk(func(lo, hi int, r *rng.Rand) {
			buf := make([]int, k)
			for u := lo; u < hi; u++ {
				total := int(res.Total[u])
				if total < ph.SampleSize {
					continue
				}
				counts := res.Counts[u*k : (u+1)*k]
				sample := dist.SampleMultisetWithoutReplacement(r, counts, ph.SampleSize, buf)
				p.ops[u] = majority(r, sample)
			}
		})
		return nil
	}
	r := p.engine.Rand()
	for u := range p.ops {
		total := int(res.Total[u])
		if total < ph.SampleSize {
			continue // not enough messages: keep the current opinion
		}
		counts := res.Counts[u*k : (u+1)*k]
		sample := dist.SampleMultisetWithoutReplacement(r, counts, ph.SampleSize, p.sampleBuf)
		p.ops[u] = majority(r, sample)
	}
	return nil
}

// forEachChunk runs fn concurrently over p.threads contiguous node
// chunks. Each chunk receives its own deterministic random stream,
// forked from a single word drawn serially from the engine stream —
// the word keys the fork by phase (stream position), the fork index
// keys it by chunk — so the outcome depends only on (seed, backend,
// threads), never on goroutine scheduling. Chunks own disjoint ranges
// of p.ops, so fn needs no synchronization.
func (p *Protocol) forEachChunk(fn func(lo, hi int, r *rng.Rand)) {
	phaseSeed := p.engine.Rand().Uint64()
	bounds := model.ChunkBounds(p.engine.N(), p.threads)
	var wg sync.WaitGroup
	for c := 0; c+1 < len(bounds); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(bounds[c], bounds[c+1], rng.New(rng.ForkSeed(phaseSeed, uint64(c))))
		}(c)
	}
	wg.Wait()
}

// noteCounters tracks the largest per-node message count of any phase,
// for the memory accounting of Theorems 1–2.
func (p *Protocol) noteCounters(res model.PhaseResult) {
	for _, t := range res.Total {
		if int(t) > p.maxCounter {
			p.maxCounter = int(t)
		}
	}
}

// pickProportional draws an opinion with probability proportional to
// counts (total = Σ counts > 0).
func pickProportional(r *rng.Rand, counts []int32, total int) model.Opinion {
	x := int(r.Uint64n(uint64(total)))
	for i, c := range counts {
		x -= int(c)
		if x < 0 {
			return model.Opinion(i)
		}
	}
	// Unreachable when total == Σ counts; guard for safety.
	return model.Opinion(len(counts) - 1)
}

// majority returns maj(A) of Section 3.1: the most frequent opinion in
// the sampled counts, ties broken uniformly at random.
func majority(r *rng.Rand, sample []int) model.Opinion {
	best := -1
	ties := 0
	var winner int
	for i, c := range sample {
		switch {
		case c > best:
			best, winner, ties = c, i, 1
		case c == best:
			ties++
			// Reservoir-style uniform choice among the tied maxima.
			if r.Intn(ties) == 0 {
				winner = i
			}
		}
	}
	return model.Opinion(winner)
}

// unanimous reports the common opinion when all nodes share one.
func unanimous(ops []model.Opinion) (model.Opinion, bool) {
	if len(ops) == 0 {
		return model.Undecided, false
	}
	first := ops[0]
	if first == model.Undecided {
		return model.Undecided, false
	}
	for _, o := range ops[1:] {
		if o != first {
			return model.Undecided, false
		}
	}
	return first, true
}
