// Package noisyrumor is a Go implementation of the noisy rumor
// spreading and plurality consensus protocol of Fraigniaud and Natale
// (PODC 2016, arXiv:1507.05796): a complete network of n anonymous
// agents, communicating only k-valued opinions through a noisy
// uniform-push channel, reaches agreement on the correct/plurality
// opinion in O(log n/ε²) rounds with O(log log n + log 1/ε) bits of
// memory per node — without any error-correcting codes.
//
// The package is a facade over the internal simulation engine. A
// minimal rumor-spreading run:
//
//	nm, _ := noisyrumor.UniformNoise(4, 0.25)
//	res, _ := noisyrumor.RumorSpreading(noisyrumor.Config{
//		N:     10000,
//		Noise: nm,
//		Seed:  1,
//	}, 2)
//	fmt.Println(res.Correct) // true w.h.p.
//
// Noise matrices are the heart of the model: entry (i, j) is the
// probability that a transmitted opinion i arrives as opinion j. The
// protocol provably works exactly when the matrix is
// (ε,δ)-majority-preserving (Definition 2 of the paper); use
// (*NoiseMatrix).IsMajorityPreserving for an exact LP-based verdict.
//
// See DESIGN.md for the architecture and the experiment suite that
// validates every claim of the paper; `go run ./cmd/experiments -run
// all -write` regenerates EXPERIMENTS.md, the paper-vs-measured
// record.
package noisyrumor

import (
	"fmt"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// Opinion is an agent's opinion: a value in [0, k) or Undecided.
type Opinion = model.Opinion

// Undecided marks an agent holding no opinion; undecided agents never
// send messages.
const Undecided = model.Undecided

// NoiseMatrix is a k×k row-stochastic channel perturbation matrix
// (Section 2.1 of the paper). All methods of the internal type are
// available, including IsMajorityPreserving (the Section-4 LP),
// SufficientMP (Eq. 18), Apply (the Eq.-2 update) and OffDiagRange.
type NoiseMatrix = noise.Matrix

// MPResult is the verdict of an exact majority-preservation check.
type MPResult = noise.MPResult

// Params holds the protocol constants of Section 3.1.
type Params = core.Params

// Schedule is the protocol's deterministic phase structure.
type Schedule = core.Schedule

// Result reports a protocol execution.
type Result = core.Result

// PhaseStats is one phase's end-of-phase system state (only recorded
// when Config.Trace is set).
type PhaseStats = core.PhaseStats

// DefaultParams returns the documented default protocol constants for
// noise parameter ε.
func DefaultParams(eps float64) Params { return core.DefaultParams(eps) }

// NewNoiseMatrix validates rows (each non-negative, summing to 1) and
// builds a custom noise matrix.
func NewNoiseMatrix(rows [][]float64) (*NoiseMatrix, error) { return noise.New(rows) }

// IdentityNoise returns the noiseless k-opinion channel.
func IdentityNoise(k int) (*NoiseMatrix, error) { return noise.Identity(k) }

// BinaryNoise returns the 2-opinion matrix of Feinerman–Haeupler–
// Korman (Eq. 1 of the paper): a bit survives with probability 1/2+ε.
func BinaryNoise(eps float64) (*NoiseMatrix, error) { return noise.FHKBinary(eps) }

// UniformNoise returns the canonical k-valued noise matrix: diagonal
// 1/k+ε, off-diagonal 1/k−ε/(k−1). It is (ε′,δ)-majority-preserving
// for every δ and every ε′ below its bias contraction ε·k/(k−1).
func UniformNoise(k int, eps float64) (*NoiseMatrix, error) { return noise.Uniform(k, eps) }

// DominantCycleNoise returns the Section-4 counterexample: diagonally
// dominant yet not majority-preserving (it leaks each opinion to its
// cyclic successor and flips small majorities).
func DominantCycleNoise(k int, eps float64) (*NoiseMatrix, error) {
	return noise.DominantCycle(k, eps)
}

// ResetNoise returns a channel that resets corrupted opinions to
// opinion 0 with probability rho.
func ResetNoise(k int, rho float64) (*NoiseMatrix, error) { return noise.Reset(k, rho) }

// Bias returns the Definition-1 bias of distribution c toward opinion
// win: min over rivals i of c[win]−c[i].
func Bias(c []float64, win int) float64 { return noise.Bias(c, win) }

// Process selects the communication engine. The paper proves (Claim 1)
// that the real push process O and the balls-into-bins process B yield
// identically distributed phase outcomes, so ProcessB is a provably
// faithful fast path: O costs O(rounds·n) per phase, B costs O(n·k).
// ProcessP (Poissonization, Definition 4) is the analysis device of
// Lemma 3 and is exposed for experimentation; it is an approximation,
// not an exact coupling. ProcessCensus samples process P's opinion
// census directly — per-phase cost independent of n — and is the only
// engine whose population range extends beyond addressable memory.
type Process = model.Process

// Engine choices.
const (
	// ProcessO simulates every push individually (the default).
	ProcessO = model.ProcessO
	// ProcessB bulk-simulates each phase via balls-into-bins.
	ProcessB = model.ProcessB
	// ProcessP draws independent Poisson message counts per node.
	ProcessP = model.ProcessP
	// ProcessCensus advances the k-dimensional opinion census as a
	// Markov chain (internal/census): one exact multinomial transition
	// draw per opinion class per phase, O(k²·poly) per phase
	// regardless of N — the n ≥ 10⁹ engine. It tracks no per-node
	// state, so Result.MaxCounter/MemoryBits are zero and per-node
	// initial vectors are summarized by their census.
	ProcessCensus = model.ProcessCensus
)

// Engines lists the accepted engine selector names (O, B, P, census).
func Engines() []string { return model.ProcessNames() }

// Backends lists the accepted Params.Backend values.
func Backends() []string { return model.BackendNames() }

// Config configures a protocol run.
type Config struct {
	// N is the number of agents (≥ 2). int64: the census engine
	// simulates populations far beyond both addressable memory and,
	// on 32-bit builds, the int range; per-node engines additionally
	// require N to fit the platform int (they allocate O(N·k) state).
	N int64
	// Noise is the channel matrix; its dimension fixes k.
	Noise *NoiseMatrix
	// Params are the protocol constants and the engine knobs: the
	// sampling backend and its thread count (Backend, Threads) and the
	// census engine's LawQuant and CensusTol. With no protocol constant
	// set, DefaultParams applies, with ε equal to the noise matrix's
	// own contraction guess and the knobs kept — prefer setting it
	// explicitly via DefaultParams(eps).
	Params Params
	// Seed makes the run reproducible.
	Seed uint64
	// Trace records per-phase statistics into Result.Trace.
	Trace bool
	// Engine selects the communication process; the zero value is
	// ProcessO, the exact per-message simulation.
	Engine Process
}

func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("noisyrumor: need N ≥ 2, got %d", c.N)
	}
	if c.Noise == nil {
		return fmt.Errorf("noisyrumor: nil noise matrix")
	}
	return nil
}

func (c Config) params() Params {
	// The backend name, its worker count and the census engine knobs
	// are orthogonal to the protocol constants, so they are excluded
	// from the "zero Params means defaults" sentinel:
	// Params{Backend: "parallel", Threads: 8} (or {LawQuant: 1e-3})
	// alone still gets derived constants.
	probe := c.Params
	probe.Backend = ""
	probe.Threads = 0
	probe.LawQuant = 0
	probe.CensusTol = 0
	if probe == (Params{}) {
		// A zero Params means "defaults": derive ε from the matrix's
		// worst-case kept bias at δ=1 when possible, falling back to
		// the uniform-matrix contraction estimate.
		eps := c.Noise.MinDiagonal() - 1.0/float64(c.Noise.K())
		if eps <= 0 || eps > 1 {
			eps = 0.5
		}
		p := DefaultParams(eps)
		p.Backend = c.Params.Backend
		p.Threads = c.Params.Threads
		p.LawQuant = c.Params.LawQuant
		p.CensusTol = c.Params.CensusTol
		return p
	}
	return c.Params
}

// run executes the protocol on cfg's engine from the initial census
// counts, judged against correct.
func (c Config) run(counts []int64, correct Opinion) (CensusResult, error) {
	return core.RunTrial(core.Trial{
		Engine: c.Engine, N: c.N, Noise: c.Noise, Params: c.params(),
		Counts: counts, Correct: correct, Trace: c.Trace,
	}, rng.New(c.Seed), nil, nil)
}

// Run executes the full two-stage protocol from an arbitrary initial
// opinion vector (length N; Undecided entries are silent agents) and
// reports the outcome relative to the designated correct opinion.
//
// Under Engine: ProcessCensus the initial vector is summarized by its
// opinion census and the run advances in aggregate (the vector form
// caps N at a slice length; use RunCensus to reach n ≥ 10⁹).
func Run(cfg Config, initial []Opinion, correct Opinion) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if int64(len(initial)) != cfg.N {
		return Result{}, fmt.Errorf("noisyrumor: %d initial opinions for %d agents", len(initial), cfg.N)
	}
	if cfg.Engine != ProcessCensus {
		return core.RunVector(cfg.Engine, cfg.Noise, cfg.params(), initial, correct, cfg.Trace, rng.New(cfg.Seed), nil)
	}
	k := cfg.Noise.K()
	for i, o := range initial {
		if o != Undecided && (o < 0 || int(o) >= k) {
			return Result{}, fmt.Errorf("noisyrumor: agent %d has invalid opinion %d", i, o)
		}
	}
	ints, _ := model.CountOpinions(initial, k)
	counts := make([]int64, k)
	for i, c := range ints {
		counts[i] = int64(c)
	}
	res, err := cfg.run(counts, correct)
	return res.Result, err
}

// CensusResult reports a census-engine run: the shared Result fields
// plus the final census and the truncation error budget.
type CensusResult = core.CensusResult

// RunCensus executes the full two-stage protocol on the aggregate
// census engine (Engine: ProcessCensus is implied): counts[i] agents
// start with opinion i, the remaining N − Σcounts are undecided, and
// the outcome is judged against the designated correct opinion. Each
// phase costs O(k²·poly(sample window)) regardless of N, so
// N = 10⁹ (and beyond) completes in seconds. Params.Backend/Threads
// are ignored — the census engine has no per-node sampling to
// parallelize.
func RunCensus(cfg Config, counts []int64, correct Opinion) (CensusResult, error) {
	if err := cfg.validate(); err != nil {
		return CensusResult{}, err
	}
	if len(counts) != cfg.Noise.K() {
		return CensusResult{}, fmt.Errorf("noisyrumor: %d opinion counts for a %d-opinion noise matrix",
			len(counts), cfg.Noise.K())
	}
	cfg.Engine = ProcessCensus
	return cfg.run(counts, correct)
}

// RumorSpreading runs the noisy rumor-spreading problem (Theorem 1):
// one source agent holds the correct opinion, everyone else is
// undecided.
func RumorSpreading(cfg Config, correct Opinion) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	k := cfg.Noise.K()
	if correct < 0 || int(correct) >= k {
		return Result{}, fmt.Errorf("noisyrumor: source opinion %d out of range [0,%d)", correct, k)
	}
	counts := make([]int64, k)
	counts[correct] = 1
	res, err := cfg.run(counts, correct)
	return res.Result, err
}

// PluralityConsensus runs the noisy plurality-consensus problem
// (Theorem 2): counts[i] agents initially hold opinion i, the
// remaining N−Σcounts agents are undecided, and the plurality opinion
// of counts is the correct outcome. It returns an error when counts
// has no strict plurality.
func PluralityConsensus(cfg Config, counts []int) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(counts) != cfg.Noise.K() {
		return Result{}, fmt.Errorf("noisyrumor: %d opinion counts for a %d-opinion noise matrix",
			len(counts), cfg.Noise.K())
	}
	wide := make([]int64, len(counts))
	total := int64(0)
	for i, c := range counts {
		if c < 0 {
			return Result{}, fmt.Errorf("noisyrumor: counts[%d] = %d negative", i, c)
		}
		// Compare before adding so a sum past int64 cannot wrap
		// negative and dodge the bound check.
		if int64(c) > cfg.N-total {
			return Result{}, fmt.Errorf("noisyrumor: counts sum beyond N=%d", cfg.N)
		}
		wide[i] = int64(c)
		total += int64(c)
	}
	plurality, strict := core.Plurality(wide)
	if !strict {
		return Result{}, fmt.Errorf("noisyrumor: initial counts %v have no strict plurality", counts)
	}
	res, err := cfg.run(wide, plurality)
	return res.Result, err
}

// NewSchedule exposes the deterministic phase structure the protocol
// would use for n agents under the given parameters — useful for
// budgeting rounds before running. n is int64 so census-scale sweeps
// can be budgeted on any platform.
func NewSchedule(n int64, p Params) (Schedule, error) { return core.NewSchedule(n, p) }
