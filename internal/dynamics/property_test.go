package dynamics

import (
	"testing"
	"testing/quick"

	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestDynamicsPreserveValidity: for every rule and random small
// configurations, the final opinion vector contains only valid values,
// the reported fractions are consistent, and the run respects the
// round budget.
func TestDynamicsPreserveValidity(t *testing.T) {
	r := rng.New(888)
	f := func(ruleRaw, kRaw uint8, seed uint16) bool {
		rule := []Rule{Voter, HMajority, UndecidedState}[int(ruleRaw)%3]
		k := int(kRaw%3) + 2
		n := 120
		nm, err := noise.Uniform(k, 0.2)
		if err != nil {
			return false
		}
		counts := make([]int, k)
		counts[0] = 40
		for i := 1; i < k; i++ {
			counts[i] = 40 / k
		}
		init, err := model.InitPlurality(n, counts)
		if err != nil {
			return false
		}
		res, err := Run(Config{Rule: rule, H: 3, Noise: nm, MaxRounds: 30},
			init, 0, rng.New(rng.ForkSeed(r.Uint64(), uint64(seed))))
		if err != nil {
			return false
		}
		if res.Rounds > 30 {
			return false
		}
		if res.CorrectFraction < 0 || res.CorrectFraction > 1 {
			return false
		}
		if res.Correct && !res.Consensus {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestVoterMartingaleWinRate: without noise, the voter model's
// consensus value is a martingale — opinion 0 starting with fraction p
// of a fully opinionated population wins with probability ≈ p. A
// statistical sanity check of the whole gossip scheduler.
func TestVoterMartingaleWinRate(t *testing.T) {
	nm, err := noise.Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	const trials = 400
	init, err := model.InitPlurality(n, []int{21, 9}) // p = 0.7
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(889)
	wins := 0
	for trial := 0; trial < trials; trial++ {
		res, err := Run(Config{Rule: Voter, Noise: nm, MaxRounds: 100000},
			init, 0, rng.New(rng.ForkSeed(r.Uint64(), uint64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus {
			t.Fatalf("voter did not converge in trial %d", trial)
		}
		if res.Correct {
			wins++
		}
	}
	rate := float64(wins) / trials
	// 6σ window around 0.7 with 400 trials: ±0.14.
	if rate < 0.56 || rate > 0.84 {
		t.Fatalf("voter win rate = %v, want ≈ 0.7 (martingale property)", rate)
	}
}
