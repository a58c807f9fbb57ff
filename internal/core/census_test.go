package core

import (
	"reflect"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestRunCensusGolden: a census protocol run — result, trace and
// final census — is a pure function of the seed.
func TestRunCensusGolden(t *testing.T) {
	nm, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(0.25)
	run := func(seed uint64) CensusResult {
		res, err := RunCensus(50_000_000, nm, params, []int64{15_000_000, 12_000_000, 10_000_000}, 0, true, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different census runs:\n%+v\n%+v", a, b)
	}
	if c := run(12); reflect.DeepEqual(a.Final, c.Final) && a.Rounds == c.Rounds && reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different seeds produced identical census runs")
	}
	// The trace must follow the derived schedule exactly.
	sched, err := NewSchedule(50_000_000, params)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sched.Stage1) + len(sched.Stage2); len(a.Trace) != want {
		t.Fatalf("trace has %d phases, schedule has %d", len(a.Trace), want)
	}
	if a.Rounds != sched.TotalRounds() {
		t.Fatalf("run reports %d rounds, schedule %d", a.Rounds, sched.TotalRounds())
	}
}

// TestRunCensusElectsPlurality: a comfortably biased start at
// n = 10⁹ must elect the plurality opinion, with the truncation
// budget far below 1 and conservation intact.
func TestRunCensusElectsPlurality(t *testing.T) {
	nm, err := noise.Uniform(5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000_000
	counts := []int64{n * 24 / 100, n * 19 / 100, n * 19 / 100, n * 19 / 100, n * 19 / 100}
	res, err := RunCensus(n, nm, DefaultParams(0.25), counts, 0, false, rng.New(20160725))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus || !res.Correct || res.Winner != 0 {
		t.Fatalf("n=10⁹ sweep: consensus=%v correct=%v winner=%d", res.Consensus, res.Correct, res.Winner)
	}
	total := res.Undecided
	for _, c := range res.Final {
		total += c
	}
	if total != n {
		t.Fatalf("final census sums to %d, want %d", total, n)
	}
	if res.ErrorBudget > 1e-2 {
		t.Fatalf("truncation budget %g too large for a %d-node sweep", res.ErrorBudget, n)
	}
	if res.MaxCounter != 0 || res.MemoryBits != 0 {
		t.Fatalf("census run reported per-node counters: %d/%d", res.MaxCounter, res.MemoryBits)
	}
}

// TestScheduleInt64: schedule derivation must accept census-scale
// populations (beyond int32, and beyond int on 32-bit builds) without
// truncation — the n-plumbing regression for the aggregate engine.
func TestScheduleInt64(t *testing.T) {
	p := DefaultParams(0.25)
	big, err := NewSchedule(1_000_000_000_000, p)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewSchedule(1_000_000, p)
	if err != nil {
		t.Fatal(err)
	}
	// ln n grows, so every n-dependent quantity must strictly grow.
	if big.Stage1[0] <= small.Stage1[0] {
		t.Fatalf("phase 0 did not grow with n: %d vs %d", big.Stage1[0], small.Stage1[0])
	}
	if len(big.Stage2) <= len(small.Stage2) {
		t.Fatalf("stage-2 phase count did not grow with n: %d vs %d", len(big.Stage2), len(small.Stage2))
	}
	bigFinal := big.Stage2[len(big.Stage2)-1].SampleSize
	smallFinal := small.Stage2[len(small.Stage2)-1].SampleSize
	if bigFinal <= smallFinal {
		t.Fatalf("final sample size did not grow with n: %d vs %d", bigFinal, smallFinal)
	}
	if bigFinal%2 == 0 {
		t.Fatalf("final sample size %d not odd", bigFinal)
	}
}

// TestCensusRunnerReuseBitIdentical: a CensusRunner serving many runs
// through RunTrial — across populations, channels and knob settings —
// must reproduce the exact result of a fresh RunCensus per run. This is
// the contract the sweep hot loop's worker-count determinism rests on.
func TestCensusRunnerReuseBitIdentical(t *testing.T) {
	nm3, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nm2, err := noise.FHKBinary(0.2)
	if err != nil {
		t.Fatal(err)
	}
	quant := DefaultParams(0.25)
	quant.LawQuant = 1e-3
	tight := DefaultParams(0.25)
	tight.CensusTol = 1e-9
	cases := []struct {
		n      int64
		nm     *noise.Matrix
		params Params
		counts []int64
		seed   uint64
	}{
		{200_000, nm3, DefaultParams(0.25), []int64{80_000, 60_000, 40_000}, 5},
		{1_000_000, nm2, DefaultParams(0.2), []int64{520_000, 480_000}, 6},
		{200_000, nm3, quant, []int64{80_000, 60_000, 40_000}, 7},
		{200_000, nm3, tight, []int64{80_000, 60_000, 40_000}, 8},
		// Same spec as the first case again: the runner must have fully
		// shed the quant/tol settings of the runs in between.
		{200_000, nm3, DefaultParams(0.25), []int64{80_000, 60_000, 40_000}, 5},
	}
	runner := new(CensusRunner)
	for i, c := range cases {
		want, err := RunCensus(c.n, c.nm, c.params, c.counts, 0, true, rng.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTrial(Trial{Engine: model.ProcessCensus, N: c.n, Noise: c.nm, Params: c.params,
			Counts: c.counts, Trace: true}, rng.New(c.seed), runner, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: reused runner diverged from fresh run:\n%+v\nvs\n%+v", i, got, want)
		}
	}
}

// TestCensusRunnerScheduleReuse: a runner keeps the schedule of the
// last (n, Params) it ran. Alternating between two points that differ
// only in n, then between two that differ only in CPrime, every run
// must still equal a fresh RunCensus on the same stream bit for bit,
// so the kept schedule is keyed by n and by every Params field.
func TestCensusRunnerScheduleReuse(t *testing.T) {
	nm, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	wider := DefaultParams(0.25)
	wider.CPrime = 3
	counts := []int64{60_000, 50_000, 40_000}
	for _, pts := range [][2]struct {
		n      int64
		params Params
	}{
		{{200_000, DefaultParams(0.25)}, {1_000_000, DefaultParams(0.25)}},
		{{200_000, DefaultParams(0.25)}, {200_000, wider}},
	} {
		a, err := NewSchedule(pts[0].n, pts[0].params)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSchedule(pts[1].n, pts[1].params)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, b) {
			t.Fatalf("points %+v share a schedule; a stale one would go unseen", pts)
		}
		runner := new(CensusRunner)
		for i := 0; i < 5; i++ {
			p := pts[i%2]
			seed := uint64(20 + i)
			want, err := RunCensus(p.n, nm, p.params, counts, 0, true, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := runner.Run(p.n, nm, p.params, counts, 0, true, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d at n=%d CPrime=%v: reused runner diverged from fresh run:\n%+v\nvs\n%+v",
					i, p.n, p.params.CPrime, got, want)
			}
		}
	}
}

// TestCensusRunnerAllocs: a warmed runner's trial allocates once, for
// the result's Final census. The schedule is kept across trials at a
// point and the Stage-1 law is written into the engine's buffer, as
// the CensusRunner and Engine.Reset contracts promise the sweep hot
// loop. Both populations start mostly undecided, so every Stage-1
// phase evaluates the law.
func TestCensusRunnerAllocs(t *testing.T) {
	nm2, err := noise.FHKBinary(0.2)
	if err != nil {
		t.Fatal(err)
	}
	nm5, err := noise.Uniform(5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		nm     *noise.Matrix
		counts []int64
	}{
		{nm2, []int64{600, 400}},
		{nm5, []int64{300, 200, 200, 150, 150}},
	} {
		params := DefaultParams(0.25)
		runner := new(CensusRunner)
		r := rng.New(9)
		run := func() {
			if _, err := runner.Run(1_000_000, c.nm, params, c.counts, 0, false, r); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(20, run); n > 1 {
			t.Errorf("k=%d: warmed CensusRunner.Run allocates %v times per trial, want ≤ 1", c.nm.K(), n)
		}
	}
}

// TestParamsCensusKnobValidation: the new census knobs share the
// Validate surface of every other protocol constant.
func TestParamsCensusKnobValidation(t *testing.T) {
	for _, bad := range []Params{
		func() Params { p := DefaultParams(0.25); p.LawQuant = -1e-3; return p }(),
		func() Params { p := DefaultParams(0.25); p.LawQuant = 1; return p }(),
		func() Params { p := DefaultParams(0.25); p.LawQuant = 1e-15; return p }(),
		func() Params { p := DefaultParams(0.25); p.CensusTol = -1e-9; return p }(),
		func() Params { p := DefaultParams(0.25); p.CensusTol = 1; return p }(),
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted LawQuant=%v CensusTol=%v", bad.LawQuant, bad.CensusTol)
		}
	}
	good := DefaultParams(0.25)
	good.LawQuant = 1e-3
	good.CensusTol = 1e-9
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected sensible census knobs: %v", err)
	}
}

// TestRunCensusQuantBudget: a quantized run reports a strictly larger
// Lemma-3 budget than the exact run (the n·ℓ·d_TV coupling mass) while
// still reaching the same verdict on a comfortably biased start.
func TestRunCensusQuantBudget(t *testing.T) {
	nm, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{400_000, 320_000, 280_000}
	exactP := DefaultParams(0.25)
	quantP := exactP
	quantP.LawQuant = 1e-3
	exact, err := RunCensus(1_000_000, nm, exactP, counts, 0, false, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	quant, err := RunCensus(1_000_000, nm, quantP, counts, 0, false, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if quant.ErrorBudget <= exact.ErrorBudget {
		t.Fatalf("quantized budget %v not above exact budget %v", quant.ErrorBudget, exact.ErrorBudget)
	}
	if !quant.Correct || !exact.Correct {
		t.Fatalf("biased start failed: exact %v, quantized %v", exact.Correct, quant.Correct)
	}
}

// TestRunCensusValidation: bad inputs error instead of panicking.
func TestRunCensusValidation(t *testing.T) {
	nm, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(0.25)
	if _, err := RunCensus(1000, nm, params, []int64{1, 0, 0}, 7, false, rng.New(1)); err == nil {
		t.Error("accepted out-of-range correct opinion")
	}
	if _, err := RunCensus(1, nm, params, []int64{1, 0, 0}, 0, false, rng.New(1)); err == nil {
		t.Error("accepted n below the schedule minimum")
	}
	if _, err := RunCensus(1000, nm, params, []int64{600, 600, 0}, 0, false, rng.New(1)); err == nil {
		t.Error("accepted counts beyond n")
	}
}
