package census

import (
	"sync"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestCertSensBasics pins the sensitivity factor's shape: ℓ = 1 is
// fully pivotal (the certificate degrades to the exact per-draw TV),
// every value sits in [0, 1], a near-tie pool keeps a material
// sensitivity while a skewed pool's decays to negligible — the decay
// that makes census-scale certificates non-vacuous.
func TestCertSensBasics(t *testing.T) {
	if s := certSens([]float64{0.5, 0.5}, 1, 1e-3); s != 1 {
		t.Fatalf("certSens at ℓ=1 = %v, want 1 (single draw is always pivotal)", s)
	}
	tie := certSens([]float64{0.5, 0.5}, 33, 1e-3)
	skew := certSens([]float64{0.9, 0.1}, 33, 1e-3)
	for _, s := range []float64{tie, skew} {
		if s < 0 || s > 1 {
			t.Fatalf("certSens outside [0, 1]: %v", s)
		}
	}
	if tie < 0.05 {
		t.Fatalf("near-tie sensitivity %v implausibly small; the bound lost its pivot mass", tie)
	}
	if skew > 1e-4 {
		t.Fatalf("skewed-pool sensitivity %v did not decay; certificates would stay vacuous", skew)
	}
	// Determinism: a pure function of its arguments.
	if again := certSens([]float64{0.5, 0.5}, 33, 1e-3); again != tie {
		t.Fatalf("certSens not deterministic: %v vs %v", again, tie)
	}
}

// TestLawCacheDroppedStores: past the entry cap the cache must count
// every store it drops instead of silently masquerading as a low hit
// rate. A tiny injected cap exercises the saturation path; re-storing
// an existing key at the cap is not a drop.
func TestLawCacheDroppedStores(t *testing.T) {
	c := NewLawCache()
	c.maxEntries = 2
	law := []float64{0.6, 0.4}
	keys := make([][]byte, 5)
	for i := range keys {
		keys[i] = lawKey(nil, []int64{int64(i + 1), 1}, 3, 1e-13, 1e-3)
		ent := c.store(keys[i], law, 0, 1)
		if ent.r[0] != law[0] {
			t.Fatalf("store %d did not return the entry", i)
		}
	}
	if got := c.DroppedStores(); got != 3 {
		t.Fatalf("DroppedStores() = %d after 5 stores into a cap-2 cache, want 3", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want the cap 2", c.Len())
	}
	// Re-storing a resident key at the cap is an overwrite, not a drop.
	c.store(keys[0], law, 0, 1)
	if got := c.DroppedStores(); got != 3 {
		t.Fatalf("DroppedStores() = %d after re-storing a resident key, want 3", got)
	}
	// Dropped keys really are absent; resident ones really are present.
	if _, hit := c.lookup(keys[4]); hit {
		t.Fatal("a dropped store is resident")
	}
	if _, hit := c.lookup(keys[1]); !hit {
		t.Fatal("a pre-cap store is missing")
	}
	// The default cap stays in force when no override is injected.
	d := NewLawCache()
	d.store(keys[0], law, 0, 1)
	if d.DroppedStores() != 0 || d.Len() != 1 {
		t.Fatalf("default-cap cache dropped a first store: dropped=%d len=%d", d.DroppedStores(), d.Len())
	}
}

// TestLawCacheConcurrentStress hammers one shared LawCache from many
// goroutines running full quantized engine trials over overlapping
// (q̂, ℓ, tol, η) keys — the sweep-worker topology — under -race.
// Every goroutine's trajectory and budget must be bit-identical to a
// private-cache reference run (cache state never leaks into results),
// and the cache's accounting must balance exactly: one lookup per
// quantized phase, no dropped stores below the cap. The same
// goroutines then share a cache saturated at one entry, whose stores
// are mostly dropped and served anyway: the bits must not move.
func TestLawCacheConcurrentStress(t *testing.T) {
	nm, err := noise.Uniform(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	countSets := [][]int64{
		{500_000, 300_000, 200_000},
		{400_000, 350_000, 250_000},
	}
	const phases = 4
	run := func(counts []int64, cache *LawCache) ([][]int64, float64, float64) {
		e, err := New(1_000_000, nm, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetLawQuant(1e-3); err != nil {
			t.Fatal(err)
		}
		e.SetCache(cache)
		if err := e.Init(counts); err != nil {
			t.Fatal(err)
		}
		var trace [][]int64
		for p := 0; p < phases; p++ {
			if err := e.Stage2Phase(22, 11); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, append(e.Counts(), e.Undecided()))
		}
		return trace, e.ErrorBudget(), e.QuantBudget()
	}
	type ref struct {
		trace   [][]int64
		budget  float64
		qbudget float64
	}
	refs := make([]ref, len(countSets))
	for i, cs := range countSets {
		tr, b, qb := run(cs, nil)
		refs[i] = ref{tr, b, qb}
	}

	const perSet = 8
	hammer := func(shared *LawCache) {
		var wg sync.WaitGroup
		errs := make(chan string, len(countSets)*perSet)
		for i, cs := range countSets {
			for g := 0; g < perSet; g++ {
				wg.Add(1)
				go func(i int, cs []int64) {
					defer wg.Done()
					tr, b, qb := run(cs, shared)
					if b != refs[i].budget || qb != refs[i].qbudget {
						errs <- "budget differs from private-cache reference"
						return
					}
					for p := range tr {
						for j := range tr[p] {
							if tr[p][j] != refs[i].trace[p][j] {
								errs <- "trajectory differs from private-cache reference"
								return
							}
						}
					}
				}(i, cs)
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}

	saturated := NewLawCache()
	saturated.maxEntries = 1
	hammer(saturated)
	if saturated.DroppedStores() == 0 {
		t.Fatal("a one-entry cache dropped no stores; the saturation path never ran")
	}

	shared := NewLawCache()
	hammer(shared)
	hits, misses := shared.Stats()
	if total := int64(len(countSets) * perSet * phases); hits+misses != total {
		t.Fatalf("hits %d + misses %d != %d lookups (one per quantized phase)", hits, misses, total)
	}
	if misses < int64(shared.Len()) {
		t.Fatalf("misses %d below stored entries %d; accounting leaked", misses, shared.Len())
	}
	if hits == 0 {
		t.Fatal("no hits across overlapping keys; sharing is not wired")
	}
	if shared.DroppedStores() != 0 {
		t.Fatalf("DroppedStores() = %d below the cap", shared.DroppedStores())
	}
}

// TestBudgetNonVacuousAtCensusScale is the acceptance pin for the
// law-level accounting: an η = 10⁻³ quantized run at n = 10⁹ — the
// regime where PR 5's per-node n·ℓ·d_TV charge was ≥ 1 from the first
// phase — must finish with ErrorBudget ≪ 1, i.e. the budget is again
// a usable Lemma-3 certificate, with the quantization leg separately
// visible via QuantBudget.
func TestBudgetNonVacuousAtCensusScale(t *testing.T) {
	nm, err := noise.Uniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(1_000_000_000, nm, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetLawQuant(1e-3); err != nil {
		t.Fatal(err)
	}
	// δ = 0.02 plurality bias, the E22 shape: ℓ = 57 for ε = 0.3, with
	// two ℓ′ = 461 boost phases (the n = 10⁹ schedule's tail).
	if err := e.Init([]int64{346_666_667, 326_666_667, 326_666_666}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if err := e.Stage2Phase(114, 57); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 2; p++ {
		if err := e.Stage2Phase(922, 461); err != nil {
			t.Fatal(err)
		}
	}
	budget := e.ErrorBudget()
	if budget >= 1 {
		t.Fatalf("n = 10⁹ quantized budget %v is vacuous (≥ 1); law-level accounting is not in effect", budget)
	}
	qb := e.QuantBudget()
	if qb <= 0 {
		t.Fatalf("QuantBudget() = %v; no phase charged a law-level certificate", qb)
	}
	if qb > budget {
		t.Fatalf("QuantBudget() %v exceeds ErrorBudget() %v", qb, budget)
	}
	t.Logf("n=10⁹ η=10⁻³: ErrorBudget %.3e (quant leg %.3e)", budget, qb)
}
