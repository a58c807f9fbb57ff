package sim

import (
	"fmt"
	"math"

	"github.com/gossipkit/noisyrumor/internal/core"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/stats"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

// RunE19 measures adversarial fault tolerance: an adversary
// re-randomizes F nodes' opinions after every round — the fault model
// under which the related-work 3-majority dynamics tolerates
// F = O(√n) (Section 1.3's citations).
//
// Two structural facts shape the experiment. First, Stage 1 performs
// no repair (opinionated nodes never change opinion), so an adversary
// active from round 0 poisons a rumor-spreading run unopposed; the
// adversary therefore activates when Stage 2 begins, isolating the
// repair capacity of the sample-majority stage. Second, the protocol
// repairs at phase boundaries, i.e. every 2ℓ rounds, so its natural
// tolerance unit is F* = n/(2ℓ) corruptions per round (one phase's
// corruption budget ≈ n); F is swept as a multiple of F*. Exact
// unanimity is impossible while the adversary acts, so the metrics are
// the final correct fraction and strict plurality preservation.
func RunE19(cfg Config) (*Report, error) {
	n := pick(cfg, 10000, 2000)
	k := 3
	eps := 0.25
	trials := pick(cfg, 10, 4)

	nm, err := noise.Uniform(k, eps)
	if err != nil {
		return nil, err
	}
	params := core.DefaultParams(eps)
	// This experiment builds its engines directly (it drives the
	// adversarial runner), so honor the harness backend axis here the
	// way runProtocol does.
	params.Backend = cfg.Backend
	sched, err := core.NewSchedule(int64(n), params)
	if err != nil {
		return nil, err
	}
	ell := sched.Stage2[0].SampleSize
	fStar := float64(n) / float64(2*ell)
	sqrtN := math.Sqrt(float64(n))
	stage1End := sched.Stage1Rounds()

	rep := &Report{
		ID:    "E19",
		Title: "Adversarial fault tolerance (the O(√n) yardstick of Section 1.3)",
		Claim: "No claim in this paper — the cited 3-majority results tolerate O(√n) corruptions per round; this measures the two-stage protocol's Stage-2 repair capacity under the same fault model (adversary active from the start of Stage 2).",
		Params: fmt.Sprintf("n=%d, k=%d, uniform noise ε=%v, repair unit F* = n/2ℓ = %.0f (√n = %.0f), %d trials, seed=%d",
			n, k, eps, fStar, sqrtN, trials, cfg.Seed),
	}

	counts, err := sweep.InitialCounts(int64(n), k, 0.2)
	if err != nil {
		return nil, err
	}
	init, err := core.InitialOpinions(int64(n), counts)
	if err != nil {
		return nil, err
	}

	table := NewTable("Final correct fraction vs adversary budget (plurality start, bias 0.2)",
		"F / F*", "F per round", "F/√n", "mean correct fraction", "min", "plurality preserved")
	multiples := []float64{0, 0.05, 0.15, 0.5, 1.5}
	for bi, mult := range multiples {
		flips := int(mult * fStar)
		type aout struct {
			frac      float64
			preserved bool
			err       error
		}
		outs := Parallel(cfg, cfg.Seed+uint64(bi)*977, trials, func(_ int, r *rng.Rand) aout {
			eng, err := model.NewEngine(n, nm, model.ProcessO, r)
			if err != nil {
				return aout{err: err}
			}
			p, err := core.New(eng, params)
			if err != nil {
				return aout{err: err}
			}
			adv := core.Adversary{FlipsPerRound: flips, ActiveFrom: stage1End + 1}
			if _, err := p.RunAdversarial(init, 0, adv); err != nil {
				return aout{err: err}
			}
			ops := p.Opinions()
			counts, _ := model.CountOpinions(ops, k)
			plu, strict := model.Plurality(ops, k)
			return aout{
				frac:      float64(counts[0]) / float64(n),
				preserved: strict && plu == 0,
			}
		})
		var frac stats.Summary
		preserved := 0
		for i, o := range outs {
			if o.err != nil {
				return nil, fmt.Errorf("trial %d: %w", i, o.err)
			}
			frac.Add(o.frac)
			if o.preserved {
				preserved++
			}
		}
		table.AddRow(f2(mult), fi(flips), f2(float64(flips)/sqrtN),
			f3(frac.Mean()), f3(frac.Min()), fmt.Sprintf("%d/%d", preserved, trials))
	}
	rep.Tables = append(rep.Tables, table)
	rep.Findings = append(rep.Findings,
		"corruption below ≈0.15·F* per round is absorbed: corrupted nodes resample a still-biased channel at their next boundary, and the final correct fraction stays near 1",
		fmt.Sprintf("the protocol's repair unit is F* = n/2ℓ = Θ(n·ε²) per round (F* = %.0f here vs √n = %.0f) — per-round repair dynamics tolerate Θ(√n), the phase-based protocol trades that for noise tolerance", fStar, sqrtN),
		"an adversary active during Stage 1 is a different story: Stage 1 never repairs, so rumor spreading from a single source is inherently fragile to opinion injection — a limitation the paper's model (noise on channels, not on states) does not consider")
	return rep, nil
}
