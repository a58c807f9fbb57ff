package noisyrumor

// The bench harness: one benchmark per validation experiment E1–E22
// (see DESIGN.md §3). Each benchmark executes the experiment's full
// pipeline at CI scale (sim.Config.Quick); the numbers printed by
// `go test -bench=. -benchmem` are the cost of regenerating that
// experiment's table. Full-size tables are produced by
// `go run ./cmd/experiments -run all -write`.
//
// Micro-benchmarks for the substrates (RNG, samplers, the push engine,
// the protocol itself) live next to their packages in
// internal/*/bench_test.go files.

import (
	"testing"

	"github.com/gossipkit/noisyrumor/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := sim.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sim.Config{Seed: 42, Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkE1RumorScalingN regenerates the Theorem-1 (k=2) round-
// complexity-vs-n table.
func BenchmarkE1RumorScalingN(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RumorScalingK regenerates the Theorem-1 success-vs-k
// table.
func BenchmarkE2RumorScalingK(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3EpsilonScaling regenerates the 1/ε² scaling table and the
// Appendix-D failure probe.
func BenchmarkE3EpsilonScaling(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Stage1Growth regenerates the Claims-2/3 and Lemma-7
// Stage-1 table.
func BenchmarkE4Stage1Growth(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Stage2Amplify regenerates the Proposition-1 amplification
// tables.
func BenchmarkE5Stage2Amplify(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6PluralityThreshold regenerates the Theorem-2 threshold
// phase diagram.
func BenchmarkE6PluralityThreshold(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7MajorityPreserving regenerates the Section-4 m.p.
// characterization tables (LP verdicts + protocol outcomes).
func BenchmarkE7MajorityPreserving(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8ProcessCoupling regenerates the Claim-1/Lemma-3 process-
// indistinguishability table.
func BenchmarkE8ProcessCoupling(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9MajGapBound regenerates the exact-majority-gap-vs-bound
// table (Lemmas 9–11).
func BenchmarkE9MajGapBound(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Baselines regenerates the baseline-dynamics comparison
// tables.
func BenchmarkE10Baselines(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Memory regenerates the counter-bits memory table.
func BenchmarkE11Memory(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Parity regenerates the Lemma-17 parity table.
func BenchmarkE12Parity(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13TrinomialTail regenerates the Lemma-16 tail-bound table.
func BenchmarkE13TrinomialTail(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Identities regenerates the Lemma-8/13/15 identity
// tables.
func BenchmarkE14Identities(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Ablation regenerates the Stage-2 constants ablation
// tables (beyond-paper deliverable).
func BenchmarkE15Ablation(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16GrowingK regenerates the k = k(n) open-problem frontier
// table (beyond-paper deliverable).
func BenchmarkE16GrowingK(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17BudgetNecessity regenerates the lower-bound necessity
// table (beyond-paper deliverable).
func BenchmarkE17BudgetNecessity(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18JitterRobustness regenerates the clock-jitter robustness
// table (beyond-paper deliverable).
func BenchmarkE18JitterRobustness(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19Adversary regenerates the adversarial-fault-tolerance
// table (beyond-paper deliverable).
func BenchmarkE19Adversary(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20CensusEngine regenerates the census-engine exactness
// and n-independence tables (including a full n = 10⁹ sweep — cheap
// by design).
func BenchmarkE20CensusEngine(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21PhaseDiagram regenerates the ε×δ phase-diagram
// heatmaps and the critical-ε bisection.
func BenchmarkE21PhaseDiagram(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22ScalingLaw regenerates the T(n)-vs-log n scaling table.
func BenchmarkE22ScalingLaw(b *testing.B) { benchExperiment(b, "E22") }

// benchRumor runs one full rumor-spreading execution per iteration at
// population n on the named sampling backend (threads applies to the
// parallel backend only; 0 = GOMAXPROCS).
func benchRumor(b *testing.B, n int, backend string, threads int) {
	b.Helper()
	nm, err := UniformNoise(3, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams(0.25)
	params.Backend, params.Threads = backend, threads
	cfg := Config{N: int64(n), Noise: nm, Params: params}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RumorSpreading(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkRumorSpreading is the perf-trajectory headline (see
// BENCH_1.json): the full protocol at n = 10⁵, k = 3, ε = 0.25 (the
// ablation benchmarks' ε) on each backend. The loop backend's cost is
// linear in the number of pushed messages — Θ(n·rounds) with rounds
// ∝ 1/ε² — while the batch backend samples whole phases at a cost
// independent of the round count, so its advantage grows as 1/ε².
func BenchmarkRumorSpreading(b *testing.B) {
	for _, backend := range Backends() {
		b.Run("n=1e5/backend="+backend, func(b *testing.B) {
			benchRumor(b, 100_000, backend, 0)
		})
	}
}

// BenchmarkRumorSpreadingHuge runs the regime where the paper's
// w.h.p. guarantees bite. Per-message simulation is out of reach here;
// the batch backend completes a full n = 10⁷ protocol execution in
// tens of seconds and the parallel backend divides that by ~#cores
// (the threads=4 variant documents the multi-core headline; on a
// single-core host it degenerates to batch plus fork overhead).
func BenchmarkRumorSpreadingHuge(b *testing.B) {
	b.Run("n=1e7/backend=batch", func(b *testing.B) {
		benchRumor(b, 10_000_000, "batch", 0)
	})
	b.Run("n=1e7/backend=parallel/threads=4", func(b *testing.B) {
		benchRumor(b, 10_000_000, "parallel", 4)
	})
}

// BenchmarkCensusSweepHuge is the census engine's headline: one FULL
// n = 10⁹, k = 5 plurality-consensus execution per iteration —
// schedule derivation, every Stage-1 and Stage-2 phase, consensus
// check. Compare against BenchmarkRumorSpreadingHuge (a full n = 10⁷
// per-node run) and BenchmarkPhaseBatchHuge (one n = 10⁷ phase): the
// census engine finishes a population 100× larger, end to end, before
// the batch backend finishes one phase.
func BenchmarkCensusSweepHuge(b *testing.B) {
	nm, err := UniformNoise(5, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1_000_000_000
	cfg := Config{N: n, Noise: nm, Params: DefaultParams(0.25)}
	counts := []int64{n * 24 / 100, n * 19 / 100, n * 19 / 100, n * 19 / 100, n * 19 / 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunCensus(cfg, counts, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkRumorSpreadingEndToEnd measures one full protocol execution
// through the public API (n=2000, k=3, ε=0.3) — the library's
// headline operation.
func BenchmarkRumorSpreadingEndToEnd(b *testing.B) {
	nm, err := UniformNoise(3, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{N: 2000, Noise: nm, Params: DefaultParams(0.3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RumorSpreading(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkPluralityConsensusEndToEnd measures one full plurality-
// consensus execution through the public API.
func BenchmarkPluralityConsensusEndToEnd(b *testing.B) {
	nm, err := UniformNoise(4, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{N: 2000, Noise: nm, Params: DefaultParams(0.3)}
	counts := []int{700, 500, 400, 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := PluralityConsensus(cfg, counts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEngineO vs BenchmarkAblationEngineB quantify the
// design choice documented in internal/model: Claim 1 lets the
// balls-into-bins engine replace per-message simulation exactly, at
// O(n·k) instead of O(n·rounds) per phase.
func benchEngine(b *testing.B, proc Process) {
	b.Helper()
	nm, err := UniformNoise(4, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{N: 5000, Noise: nm, Params: DefaultParams(0.25), Engine: proc}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := RumorSpreading(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngineO(b *testing.B) { benchEngine(b, ProcessO) }
func BenchmarkAblationEngineB(b *testing.B) { benchEngine(b, ProcessB) }
