package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

func newProtocol(t *testing.T, n int, nm *noise.Matrix, eps float64, seed uint64) *Protocol {
	t.Helper()
	e, err := model.NewEngine(n, nm, model.ProcessO, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(e, DefaultParams(eps))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultParams(0.2)); err == nil {
		t.Fatal("nil engine accepted")
	}
	nm, _ := noise.Uniform(3, 0.2)
	e, err := model.NewEngine(100, nm, model.ProcessO, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(e, Params{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestRunValidation(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.2)
	p := newProtocol(t, 50, nm, 0.2, 2)
	if _, err := p.Run(make([]model.Opinion, 10), 0); err == nil {
		t.Fatal("wrong-length initial accepted")
	}
	init, _ := model.InitRumor(50, 3, 0)
	if _, err := p.Run(init, 3); err == nil {
		t.Fatal("out-of-range correct opinion accepted")
	}
	init[4] = 7
	if _, err := p.Run(init, 0); err == nil {
		t.Fatal("invalid node opinion accepted")
	}
}

func TestRumorSpreadingNoiseless(t *testing.T) {
	// Under the identity channel only the source's opinion ever
	// exists, so the protocol must always succeed.
	nm, _ := noise.Identity(3)
	p := newProtocol(t, 300, nm, 0.5, 3)
	init, err := model.InitRumor(300, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(init, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus || !res.Correct || res.Winner != 2 {
		t.Fatalf("noiseless rumor spreading failed: %+v", res)
	}
	if res.FirstAllCorrect < 0 || res.FirstAllCorrect > res.Rounds {
		t.Fatalf("FirstAllCorrect = %d with Rounds = %d", res.FirstAllCorrect, res.Rounds)
	}
}

func TestRumorSpreadingNoisyK3(t *testing.T) {
	// Theorem 1 regime: Uniform(3, 0.3) is (ε,δ)-m.p.; at n=2000 the
	// protocol should deliver the correct opinion.
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 2000, nm, 0.3, 4)
	init, _ := model.InitRumor(2000, 3, 1)
	res, err := p.Run(init, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("noisy rumor spreading failed: %+v", res)
	}
	// RunTrial from the single-source census lays out the same vector
	// and draws the same stream.
	trial, err := RunTrial(Trial{Engine: model.ProcessO, N: 2000, Noise: nm, Params: DefaultParams(0.3),
		Counts: []int64{0, 1, 0}, Correct: 1}, rng.New(4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trial.Result, res) {
		t.Fatalf("RunTrial diverged from the vector run:\n%+v\nvs\n%+v", trial.Result, res)
	}
}

func TestRumorSpreadingNoisyK2MatchesFHK(t *testing.T) {
	nm, err := noise.FHKBinary(0.25)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 2000, nm, 0.25, 5)
	init, _ := model.InitRumor(2000, 2, 0)
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("binary noisy rumor spreading failed: %+v", res)
	}
}

func TestPluralityConsensusNoisy(t *testing.T) {
	// Theorem 2 regime: biased initial set, the rest undecided.
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 2000, nm, 0.3, 6)
	init, err := model.InitPlurality(2000, []int{360, 240, 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("plurality consensus failed: %+v", res)
	}
}

func TestNonMajorityPreservingNoiseBreaksProtocol(t *testing.T) {
	// Section 4's counterexample: the forward-cycle channel leaks the
	// plurality's mass to the next opinion. Starting δ-biased toward
	// opinion 0, the system must NOT converge to 0.
	nm, err := noise.DominantCycle(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 1500, nm, 0.05, 7)
	init, err := model.InitPlurality(1500, []int{825, 675, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("protocol succeeded under a non-m.p. channel: %+v", res)
	}
}

func TestStage1TraceInvariants(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 2000, nm, 0.3, 8)
	p.SetTrace(true)
	init, _ := model.InitRumor(2000, 3, 0)
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(p.sched.Stage1)+len(p.sched.Stage2) {
		t.Fatalf("trace has %d entries", len(res.Trace))
	}
	prevOpinionated := int64(0)
	stage1Phases := 0
	for _, ph := range res.Trace {
		if ph.Stage == 1 {
			stage1Phases++
			// Lemma 4 machinery: the opinionated set only grows in
			// Stage 1 (opinionated nodes never change or drop out).
			if ph.Opinionated < prevOpinionated {
				t.Fatalf("opinionated count dropped in stage 1: %d -> %d",
					prevOpinionated, ph.Opinionated)
			}
			prevOpinionated = ph.Opinionated
			// Distribution entries must sum to the opinionated
			// fraction.
			sum := 0.0
			for _, v := range ph.Dist {
				sum += v
			}
			if math.Abs(sum-float64(ph.Opinionated)/2000) > 1e-9 {
				t.Fatalf("dist sums to %v with %d opinionated", sum, ph.Opinionated)
			}
		}
	}
	if stage1Phases < 2 {
		t.Fatalf("only %d stage-1 phases traced", stage1Phases)
	}
	// Lemma 6: all nodes opinionated at the end of Stage 1.
	lastS1 := res.Trace[stage1Phases-1]
	if lastS1.Opinionated != 2000 {
		t.Fatalf("stage 1 ended with %d/2000 opinionated", lastS1.Opinionated)
	}
	// Lemma 7 direction: bias toward the correct opinion positive at
	// the end of Stage 1.
	if lastS1.Bias <= 0 {
		t.Fatalf("stage 1 ended with bias %v", lastS1.Bias)
	}
}

func TestStage2AmplifiesBias(t *testing.T) {
	// Proposition 1 / Lemma 12: tracing a run, the Stage-2 bias should
	// grow from its initial value to 1 (consensus) by the final phase.
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 2000, nm, 0.3, 9)
	p.SetTrace(true)
	init, _ := model.InitPlurality(2000, []int{1100, 900, 0})
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stage2 []PhaseStats
	for _, ph := range res.Trace {
		if ph.Stage == 2 {
			stage2 = append(stage2, ph)
		}
	}
	if len(stage2) < 2 {
		t.Fatalf("only %d stage-2 phases", len(stage2))
	}
	final := stage2[len(stage2)-1]
	if final.Bias != 1 {
		t.Fatalf("final bias = %v, want 1 (consensus)", final.Bias)
	}
}

func TestMemoryAccounting(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 1000, nm, 0.3, 10)
	init, _ := model.InitRumor(1000, 3, 0)
	res, err := p.Run(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCounter < 1 {
		t.Fatalf("MaxCounter = %d", res.MaxCounter)
	}
	if res.MemoryBits < 3 {
		t.Fatalf("MemoryBits = %d", res.MemoryBits)
	}
	// The counters are phase-local: they must be O(phase length), not
	// O(total rounds). The longest phase is a few hundred rounds here;
	// allow generous fluctuation but reject run-total magnitudes.
	if res.MaxCounter > p.sched.TotalRounds() {
		t.Fatalf("MaxCounter %d exceeds total rounds %d: counters not phase-local",
			res.MaxCounter, p.sched.TotalRounds())
	}
}

func TestOpinionsCopy(t *testing.T) {
	nm, _ := noise.Identity(2)
	p := newProtocol(t, 100, nm, 0.5, 11)
	init, _ := model.InitRumor(100, 2, 1)
	if _, err := p.Run(init, 1); err != nil {
		t.Fatal(err)
	}
	ops := p.Opinions()
	ops[0] = model.Undecided
	if p.Opinions()[0] == model.Undecided {
		t.Fatal("Opinions did not copy")
	}
}

func TestRunDoesNotMutateInitial(t *testing.T) {
	nm, _ := noise.Identity(2)
	p := newProtocol(t, 100, nm, 0.5, 12)
	init, _ := model.InitRumor(100, 2, 1)
	if _, err := p.Run(init, 1); err != nil {
		t.Fatal(err)
	}
	if init[5] != model.Undecided {
		t.Fatal("Run mutated the initial opinions")
	}
}

func TestMajorityTieBreakUniform(t *testing.T) {
	r := rng.New(99)
	const trials = 30000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		w := majority(r, []int{5, 5, 5})
		counts[w]++
	}
	for i, c := range counts {
		want := trials / 3.0
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("tie-break favored %d: counts %v", i, counts)
		}
	}
}

func TestMajorityClearWinner(t *testing.T) {
	r := rng.New(100)
	for i := 0; i < 100; i++ {
		if w := majority(r, []int{1, 7, 3}); w != 1 {
			t.Fatalf("majority = %d, want 1", w)
		}
	}
}

func TestPickProportional(t *testing.T) {
	r := rng.New(101)
	counts := []int32{10, 0, 30}
	const trials = 40000
	hist := make([]int, 3)
	for i := 0; i < trials; i++ {
		hist[pickProportional(r, counts, 40)]++
	}
	if hist[1] != 0 {
		t.Fatalf("zero-count opinion picked %d times", hist[1])
	}
	want := trials * 0.25
	if math.Abs(float64(hist[0])-want) > 6*math.Sqrt(want*0.75) {
		t.Fatalf("hist = %v, want ~[%v 0 %v]", hist, want, 3*want)
	}
}

func TestUnanimous(t *testing.T) {
	if _, ok := unanimous(nil); ok {
		t.Fatal("empty unanimous")
	}
	if _, ok := unanimous([]model.Opinion{model.Undecided, model.Undecided}); ok {
		t.Fatal("undecided unanimous")
	}
	if w, ok := unanimous([]model.Opinion{2, 2, 2}); !ok || w != 2 {
		t.Fatalf("unanimous = %d, %v", w, ok)
	}
	if _, ok := unanimous([]model.Opinion{2, 1}); ok {
		t.Fatal("split reported unanimous")
	}
}
