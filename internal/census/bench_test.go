package census_test

import (
	"fmt"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// benchPhase times one census phase at population n: stage 1 when
// ell == 0, otherwise a Stage-2 phase with sample size ell; eta is
// the Stage-2 law quantization step (0 = exact). The numbers are
// n-independent by construction — compare BenchmarkCensusPhaseHuge
// against internal/model's BenchmarkPhaseBatchHuge (same n = 10⁷,
// k = 4, 114-round workload) for the census-over-batch headline;
// cmd/benchjson derives the ratio.
func benchPhase(b *testing.B, n int64, k int, rounds, ell int, eta float64) {
	b.Helper()
	nm, err := noise.Uniform(k, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, k)
	counts[0] = n / int64(k+1) * 2
	rest := (n - counts[0]) / int64(k-1)
	for i := 1; i < k; i++ {
		counts[i] = rest
	}
	eng, err := census.New(n, nm, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.SetLawQuant(eta); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := eng.Init(counts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if ell == 0 {
			err = eng.Stage1Phase(rounds)
		} else {
			err = eng.Stage2Phase(rounds, ell)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCensusPhaseStage1 is the Stage-1 adoption law at n = 10⁹ —
// closed form, so it prices the noise split and the transition draw.
func BenchmarkCensusPhaseStage1(b *testing.B) {
	benchPhase(b, 1_000_000_000, 5, 7, 0, 0)
}

// BenchmarkCensusPhaseStage2 is a regular n = 10⁹ Stage-2 phase
// (ℓ = 81, the ε = 0.25 schedule) — dominated by the majority-law
// truncated summation.
func BenchmarkCensusPhaseStage2(b *testing.B) {
	benchPhase(b, 1_000_000_000, 5, 162, 81, 0)
}

// BenchmarkCensusPhaseStage2Quant is the same phase under the η = 10⁻³
// law cache: the first iteration pays one evaluation at the lattice
// point, every later one is a lookup plus the noise split and the
// transition draws — the steady-state cost of a quantized sweep phase.
// cmd/benchjson derives the stage-2 speedup from the Stage2 pair.
func BenchmarkCensusPhaseStage2Quant(b *testing.B) {
	benchPhase(b, 1_000_000_000, 5, 162, 81, 1e-3)
}

// BenchmarkCensusPhaseHuge is the n = 10⁷ phase of
// BenchmarkPhaseBatchHuge (internal/model) on the census engine: the
// same k = 4, ε = 0.25 channel and 114-round Stage-2 length (ℓ = 57).
// The batch backend pays Ω(n·k) here; the census engine's cost has no
// n in it at all.
func BenchmarkCensusPhaseHuge(b *testing.B) {
	benchPhase(b, 10_000_000, 4, 114, 57, 0)
}

// BenchmarkMajorityLaw prices the Stage-2 law evaluation itself over a
// (k, ℓ) grid — the law-level view that makes law regressions visible
// independently of phase-level numbers (which mix in the noise split
// and the transition draws). k = 2 exercises the analytic binomial
// fast path, k = 3 the one-pass rival row, larger k the Poissonized
// products with their truncation windows. The k=5/ell=443/skew row is
// the shape of grid-k35-exact's ℓ′ = 443 evaluations (q₀ = 0.7, the
// rest equal), where the cap-free products carry every winning count.
func BenchmarkMajorityLaw(b *testing.B) {
	run := func(name string, q []float64, ell int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, _ := census.MajorityLaw(q, ell, census.DefaultTolerance)
				if r[0] <= r[1] {
					b.Fatal("majority law lost the plurality")
				}
			}
		})
	}
	// spread puts q0 on opinion 0 and splits the rest evenly.
	spread := func(k int, q0 float64) []float64 {
		q := make([]float64, k)
		q[0] = q0
		for j := 1; j < k; j++ {
			q[j] = (1 - q0) / float64(k-1)
		}
		return q
	}
	for _, k := range []int{2, 3, 5, 8} {
		for _, ell := range []int{11, 33, 81, 665} {
			run(fmt.Sprintf("k=%d/ell=%d", k, ell), spread(k, 1.0/float64(k)+0.05), ell)
		}
	}
	run("k=5/ell=443/skew", spread(5, 0.7), 443)
}
