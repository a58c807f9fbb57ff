package core

import (
	"testing"

	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
)

func TestRunJitteredZeroJitterSucceeds(t *testing.T) {
	// With no jitter the per-round execution must behave like the
	// synchronous protocol (same rule applications at the same global
	// rounds) and succeed in the Theorem-1 regime.
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 1500, nm, 0.3, 21)
	init, _ := model.InitRumor(1500, 3, 1)
	res, err := p.RunJittered(init, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("zero-jitter run failed: %+v", res)
	}
}

func TestRunJitteredModerateJitterSucceeds(t *testing.T) {
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := newProtocol(t, 1500, nm, 0.3, 22)
	// Jitter of a quarter of the regular Stage-2 phase length.
	jitter := p.sched.Stage2[0].SampleSize / 2
	init, _ := model.InitRumor(1500, 3, 0)
	res, err := p.RunJittered(init, 0, jitter)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("jittered run (J=%d) failed: %+v", jitter, res)
	}
}

func TestRunJitteredValidation(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 100, nm, 0.3, 23)
	init, _ := model.InitRumor(100, 3, 0)
	if _, err := p.RunJittered(init[:10], 0, 0); err == nil {
		t.Fatal("wrong-length initial accepted")
	}
	if _, err := p.RunJittered(init, 5, 0); err == nil {
		t.Fatal("bad correct opinion accepted")
	}
	if _, err := p.RunJittered(init, 0, -1); err == nil {
		t.Fatal("negative jitter accepted")
	}
	bad := append([]model.Opinion(nil), init...)
	bad[3] = 99
	if _, err := p.RunJittered(bad, 0, 0); err == nil {
		t.Fatal("invalid node opinion accepted")
	}
}

func TestRunJitteredRoundsAccounting(t *testing.T) {
	nm, _ := noise.Identity(2)
	p := newProtocol(t, 200, nm, 0.5, 24)
	init, _ := model.InitRumor(200, 2, 0)
	const jitter = 7
	res, err := p.RunJittered(init, 0, jitter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != p.sched.TotalRounds()+jitter {
		t.Fatalf("rounds = %d, want %d", res.Rounds, p.sched.TotalRounds()+jitter)
	}
	if !res.Correct { // identity channel: success is deterministic
		t.Fatalf("noiseless jittered run failed: %+v", res)
	}
}

func TestRunAdversarialValidation(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 100, nm, 0.3, 25)
	init, _ := model.InitRumor(100, 3, 0)
	if _, err := p.RunAdversarial(init, 0, Adversary{FlipsPerRound: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := p.RunAdversarial(init, 0, Adversary{ActiveFrom: -2}); err == nil {
		t.Fatal("negative activation accepted")
	}
}

func TestRunAdversarialZeroBudgetMatchesPlain(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 800, nm, 0.3, 26)
	init, _ := model.InitRumor(800, 3, 2)
	res, err := p.RunAdversarial(init, 2, Adversary{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("zero-budget adversarial run failed: %+v", res)
	}
}

func TestRunAdversarialLightCorruptionPreservesPlurality(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 1000, nm, 0.3, 27)
	init, _ := model.InitPlurality(1000, []int{450, 300, 250})
	stage1 := p.sched.Stage1Rounds()
	_, err := p.RunAdversarial(init, 0, Adversary{FlipsPerRound: 1, ActiveFrom: stage1 + 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Opinions()
	plu, strict := model.Plurality(ops, 3)
	if !strict || plu != 0 {
		t.Fatalf("plurality lost under 1 flip/round: plurality=%d strict=%v", plu, strict)
	}
}

func TestRunAdversarialHeavyCorruptionDestroysSignal(t *testing.T) {
	nm, _ := noise.Uniform(3, 0.3)
	p := newProtocol(t, 500, nm, 0.3, 28)
	init, _ := model.InitPlurality(500, []int{225, 150, 125})
	// Corrupt half the population every round: no consensus possible.
	res, err := p.RunAdversarial(init, 0, Adversary{FlipsPerRound: 250})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consensus {
		t.Fatalf("consensus under 50%%-per-round corruption: %+v", res)
	}
}
