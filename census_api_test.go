package noisyrumor

import (
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// TestCensusEnginePluralityConsensus: the facade's census path elects
// the plurality at a population beyond int32 range — the headline
// n ≥ 10⁹ workload through the public API.
func TestCensusEnginePluralityConsensus(t *testing.T) {
	nm, err := UniformNoise(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:      3_000_000_000, // > 2³¹−1: int64 N plumbing regression
		Noise:  nm,
		Params: DefaultParams(0.25),
		Seed:   5,
		Engine: ProcessCensus,
	}
	res, err := PluralityConsensus(cfg, []int{1_100_000_000, 1_000_000_000, 900_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus || !res.Correct || res.Winner != 0 {
		t.Fatalf("census consensus=%v correct=%v winner=%d", res.Consensus, res.Correct, res.Winner)
	}
}

// TestCensusEngineRumorSpreading: one source among N−1 undecided,
// entirely in aggregate.
func TestCensusEngineRumorSpreading(t *testing.T) {
	nm, err := UniformNoise(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:      1_000_000_000,
		Noise:  nm,
		Params: DefaultParams(0.3),
		Seed:   2,
		Engine: ProcessCensus,
		Trace:  true,
	}
	res, err := RumorSpreading(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("census rumor spreading failed: %+v", res)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace requested but empty")
	}
	if first := res.Trace[0].Opinionated; first <= 0 || first >= cfg.N {
		t.Fatalf("first-phase opinionated count %d implausible", first)
	}
}

// TestCensusExactK8ReachesConsensus: rumor spreading from one source
// at n = 10⁹, k = 8, ε = 0.25 on the exact census engine (what
// `noisyrumor -engine census -n 1000000000 -k 8 -eps 0.25` runs) ends in
// correct consensus at seeds 1–6. The quantized law (-law-quant 1e-3)
// failed all six: the first Stage-2 pool's lead sat below half a
// lattice step, so its law had no plurality.
func TestCensusExactK8ReachesConsensus(t *testing.T) {
	nm, err := UniformNoise(8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := Config{N: 1_000_000_000, Noise: nm, Params: DefaultParams(0.25), Seed: seed, Engine: ProcessCensus}
		res, err := RumorSpreading(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus || !res.Correct {
			t.Errorf("seed %d: consensus=%v correct=%v winner=%d", seed, res.Consensus, res.Correct, res.Winner)
		}
	}
}

// TestRunCensusExposesBudget: the typed entry point returns the final
// census and the truncation budget.
func TestRunCensusExposesBudget(t *testing.T) {
	nm, err := UniformNoise(4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 10_000_000, Noise: nm, Params: DefaultParams(0.25), Seed: 3}
	res, err := RunCensus(cfg, []int64{3_000_000, 2_600_000, 2_400_000, 2_000_000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Undecided
	for _, c := range res.Final {
		total += c
	}
	if total != cfg.N {
		t.Fatalf("final census sums to %d, want %d", total, cfg.N)
	}
	if res.ErrorBudget < 0 || res.ErrorBudget > 1e-2 {
		t.Fatalf("error budget %g out of expected range", res.ErrorBudget)
	}
}

// TestCensusKnobsThreadThrough: Params.LawQuant and Params.CensusTol
// must reach the engine — quantization adds coupling mass to the
// reported budget, a loosened tolerance grows it, and LawQuant = 0 is
// bit-identical to a knob-free config.
func TestCensusKnobsThreadThrough(t *testing.T) {
	nm, err := UniformNoise(4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{3_000_000, 2_600_000, 2_400_000, 2_000_000}
	base := Config{N: 10_000_000, Noise: nm, Params: DefaultParams(0.25), Seed: 3}
	exact, err := RunCensus(base, counts, 0)
	if err != nil {
		t.Fatal(err)
	}

	zeroQuant := base
	zeroQuant.Params.LawQuant = 0
	same, err := RunCensus(zeroQuant, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, same) {
		t.Fatal("LawQuant: 0 is not bit-identical to the knob-free config")
	}

	quant := base
	quant.Params.LawQuant = 1e-3
	qres, err := RunCensus(quant, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qres.ErrorBudget <= exact.ErrorBudget {
		t.Fatalf("quantized budget %v not above exact %v; Params.LawQuant is not wired", qres.ErrorBudget, exact.ErrorBudget)
	}

	loose := base
	loose.Params.CensusTol = 1e-6
	lres, err := RunCensus(loose, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lres.ErrorBudget <= exact.ErrorBudget {
		t.Fatalf("loosened-tolerance budget %v not above default %v; Params.CensusTol is not wired", lres.ErrorBudget, exact.ErrorBudget)
	}

	// A knob-only Params still derives default protocol constants (the
	// zero-sentinel exclusion), rather than failing ε validation.
	knobOnly := Config{N: 1_000_000, Noise: nm, Seed: 4, Params: Params{LawQuant: 1e-3, CensusTol: 1e-10}}
	if _, err := RunCensus(knobOnly, []int64{400_000, 300_000, 200_000, 100_000}, 0); err != nil {
		t.Fatalf("knob-only Params rejected: %v", err)
	}
}

// TestRunWithCensusEngineMatchesCounts: Run under Engine:
// ProcessCensus summarizes a per-node initial vector by its census —
// same seed, same outcome as the counts-based entry point.
func TestRunWithCensusEngineMatchesCounts(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 300_000, Noise: nm, Params: DefaultParams(0.3), Seed: 9, Engine: ProcessCensus}
	initial := make([]Opinion, cfg.N)
	for i := range initial {
		switch {
		case i < 120_000:
			initial[i] = 0
		case i < 220_000:
			initial[i] = 1
		default:
			initial[i] = Undecided
		}
	}
	fromVector, err := Run(cfg, initial, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromCounts, err := RunCensus(cfg, []int64{120_000, 100_000, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromVector, fromCounts.Result) {
		t.Fatalf("vector and counts entry points disagree:\n%+v\n%+v", fromVector, fromCounts.Result)
	}
}

// TestRunCensusValidation: malformed count vectors error instead of
// panicking.
func TestRunCensusValidation(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCensus(Config{N: 1000, Noise: nm, Seed: 1}, []int64{1, 2}, 0); err == nil {
		t.Error("RunCensus accepted a short count vector")
	}
	if _, err := RunCensus(Config{N: 1000, Noise: nm, Seed: 1}, []int64{600, 600, 0}, 0); err == nil {
		t.Error("RunCensus accepted counts beyond N")
	}
}

// TestEnginesListsCensus: the selector surface advertises the fourth
// engine.
func TestEnginesListsCensus(t *testing.T) {
	if got := strings.Join(Engines(), ","); got != "O,B,P,census" {
		t.Fatalf("Engines() = %s", got)
	}
	if ProcessCensus.String() != "census" {
		t.Fatalf("ProcessCensus renders as %q", ProcessCensus)
	}
}

// TestRunCensusZeroCensus: an all-zero count vector (no sources at
// all) is a legal if vacuous run — the schedule executes, nobody ever
// adopts, and the verdict is a clean non-consensus rather than a
// panic or a phantom winner.
func TestRunCensusZeroCensus(t *testing.T) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCensus(Config{N: 10_000, Noise: nm, Params: DefaultParams(0.3), Seed: 4},
		[]int64{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consensus || res.Correct || res.Winner != Undecided {
		t.Fatalf("zero census produced a verdict: %+v", res)
	}
	if res.Undecided != 10_000 {
		t.Fatalf("zero census ended with %d undecided, want all", res.Undecided)
	}
	if res.ErrorBudget != 0 {
		t.Fatalf("zero census accumulated budget %g", res.ErrorBudget)
	}
}

// TestRunCensusPartialCounts: counts summing below N leave the
// remainder undecided (the documented contract), and the run still
// reaches the plurality from that partial start.
func TestRunCensusPartialCounts(t *testing.T) {
	nm, err := UniformNoise(2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCensus(Config{N: 100_000, Noise: nm, Params: DefaultParams(0.35), Seed: 6},
		[]int64{600, 400}, 0) // 99% of the population undecided
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("partial-count start failed: %+v", res)
	}
}

// TestRunCensusSampleSizeOneSchedule: protocol constants that derive
// an ℓ = 1 Stage-2 subsample (C/ε² ≤ 1) must run end to end.
func TestRunCensusSampleSizeOneSchedule(t *testing.T) {
	nm, err := UniformNoise(2, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(1)
	params.C = 1 // ℓ = oddCeil(1/1²) = 1
	sched, err := NewSchedule(50_000, params)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Stage2[0].SampleSize; got != 1 {
		t.Fatalf("schedule derived ℓ=%d, want the ℓ=1 edge case", got)
	}
	if _, err := RunCensus(Config{N: 50_000, Noise: nm, Params: params, Seed: 8},
		[]int64{30_000, 20_000}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunCensusOverflowingCounts: int64 count sums that wrap must be
// rejected at the facade boundary (regression for the pre-add bound
// check in census.Engine.Init and PluralityConsensus).
func TestRunCensusOverflowingCounts(t *testing.T) {
	nm, err := UniformNoise(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	huge := int64(1) << 62
	if _, err := RunCensus(Config{N: 1 << 62, Noise: nm, Seed: 1}, []int64{huge, huge}, 0); err == nil {
		t.Error("RunCensus accepted a count sum that wraps int64")
	}
	if bits.UintSize == 64 {
		// int counts can only wrap an int64 sum on 64-bit platforms;
		// counts must be distinct so the strict-plurality check does
		// not mask the overflow guard.
		nm4, err := UniformNoise(4, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: math.MaxInt64, Noise: nm4, Seed: 1, Engine: ProcessCensus}
		counts := []int{math.MaxInt, math.MaxInt - 1, math.MaxInt - 1, math.MaxInt - 1}
		if _, err := PluralityConsensus(cfg, counts); err == nil {
			t.Error("PluralityConsensus accepted an int count sum that wraps int64")
		}
	}
}
