package census

import (
	"math"
	"sync"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

// TestQuantizeQ pins the lattice construction: q̂ is renormalized, a
// pure function of (q, η), within η/2 of q per coordinate, and the
// degenerate all-zero rounding is flagged rather than divided by.
func TestQuantizeQ(t *testing.T) {
	q := []float64{0.51234, 0.30001, 0.18765}
	qhat := make([]float64, 3)
	idx := make([]int64, 3)
	dtv, ok := quantizeQ(q, 1e-3, qhat, idx)
	if !ok {
		t.Fatal("η=1e-3 flagged degenerate for an interior point")
	}
	sum := 0.0
	for j, v := range qhat {
		sum += v
		if math.Abs(v-q[j]) > 1e-3 {
			t.Fatalf("q̂[%d]=%v strays beyond η from q[%d]=%v", j, v, j, q[j])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("q̂ sums to %v", sum)
	}
	if dtv < 0 || dtv > 1.5e-3 {
		t.Fatalf("d_TV(q, q̂) = %v outside the lattice bound", dtv)
	}
	// Determinism: same input, same lattice point.
	qhat2 := make([]float64, 3)
	idx2 := make([]int64, 3)
	dtv2, _ := quantizeQ(q, 1e-3, qhat2, idx2)
	for j := range qhat {
		if qhat[j] != qhat2[j] || idx[j] != idx2[j] {
			t.Fatal("quantizeQ is not deterministic")
		}
	}
	if dtv != dtv2 {
		t.Fatal("quantizeQ d_TV is not deterministic")
	}
	// A point mass sits on every lattice: d_TV must be exactly zero.
	if dtv, ok = quantizeQ([]float64{1, 0, 0}, 1e-3, qhat, idx); !ok || dtv != 0 {
		t.Fatalf("point-mass quantization: dtv=%v ok=%v, want 0, true", dtv, ok)
	}
	// η coarser than every coordinate rounds all indices to zero.
	if _, ok = quantizeQ([]float64{0.34, 0.33, 0.33}, 0.9, qhat, idx); ok {
		t.Fatal("coarse η not flagged degenerate")
	}
}

// TestLawCacheStatsAndSharing: lookups count hits and misses, stored
// entries round-trip, and concurrent use from many goroutines is safe
// (run under -race in CI).
func TestLawCacheStatsAndSharing(t *testing.T) {
	c := NewLawCache()
	key := lawKey(nil, []int64{3, 2, 1}, 5, 1e-13, 1e-3)
	if _, hit := c.lookup(key); hit {
		t.Fatal("empty cache reported a hit")
	}
	ret := c.store(key, []float64{0.5, 0.3, 0.2}, 1e-10, 0.25)
	if ret.dropped != 1e-10 || ret.sens != 0.25 || ret.r[0] != 0.5 {
		t.Fatalf("store did not return the entry: %+v", ret)
	}
	ent, hit := c.lookup(key)
	if !hit || ent.dropped != 1e-10 || ent.sens != 0.25 || ent.r[0] != 0.5 {
		t.Fatalf("stored entry did not round-trip: %+v hit=%v", ent, hit)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("Stats() = (%d, %d), want (1, 1)", h, m)
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d", c.Len())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := lawKey(nil, []int64{int64(w), 1}, 3, 1e-13, 1e-3)
			c.store(k, []float64{0.6, 0.4}, 0, 1)
			c.lookup(k)
		}(w)
	}
	wg.Wait()
	if rate := c.HitRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("HitRate() = %v after mixed lookups", rate)
	}
}

// TestLawKeyDistinct: keys must separate every axis — lattice point,
// sample size, tolerance, quantization step η (the memoized
// certificate depends on the cell radius) and dimension (varint
// self-delimiting).
func TestLawKeyDistinct(t *testing.T) {
	base := string(lawKey(nil, []int64{3, 2}, 5, 1e-13, 1e-3))
	for _, other := range []string{
		string(lawKey(nil, []int64{3, 3}, 5, 1e-13, 1e-3)),
		string(lawKey(nil, []int64{3, 2}, 7, 1e-13, 1e-3)),
		string(lawKey(nil, []int64{3, 2}, 5, 1e-9, 1e-3)),
		string(lawKey(nil, []int64{3, 2}, 5, 1e-13, 1e-2)),
		string(lawKey(nil, []int64{3, 2, 0}, 5, 1e-13, 1e-3)),
	} {
		if other == base {
			t.Fatalf("distinct law identities share a key: %q", base)
		}
	}
}

// TestQuantBudgetDominatesLawTV is the budget-conservativeness
// property the engine's accounting rests on: for a grid of (q, η, ℓ),
// the charged law-level certificate ℓ·d_TV(q, q̂)·certSens(q̂, ℓ, η)
// must dominate the directly computed total-variation distance between
// MajorityLaw(q) and MajorityLaw(q̂) — the hybrid/flip-coupling chain
// certSens documents — up to the two evaluations' own (tiny,
// separately accounted) truncation masses. This extends the PR-5 test
// (which charged the looser draw-by-draw ℓ·d_TV with sens ≡ 1) to the
// memoized sensitivity factor.
func TestQuantBudgetDominatesLawTV(t *testing.T) {
	qs := [][]float64{
		{0.7, 0.3},
		{0.52, 0.48},
		{0.5, 0.3, 0.2},
		{0.34, 0.33, 0.33},
		{0.4, 0.25, 0.2, 0.15},
		{0.24, 0.19, 0.19, 0.19, 0.19},
	}
	etas := []float64{1e-2, 1e-3, 1e-4}
	ells := []int{1, 5, 33, 81}
	const tol = 1e-13
	for _, q := range qs {
		k := len(q)
		qhat := make([]float64, k)
		idx := make([]int64, k)
		for _, eta := range etas {
			dtv, ok := quantizeQ(q, eta, qhat, idx)
			if !ok {
				t.Fatalf("q=%v η=%v degenerate", q, eta)
			}
			for _, ell := range ells {
				exact, d1 := MajorityLaw(q, ell, tol)
				quant, d2 := MajorityLaw(qhat, ell, tol)
				lawTV := 0.0
				for j := range exact {
					lawTV += math.Abs(exact[j] - quant[j])
				}
				lawTV /= 2
				sens := certSens(qhat, ell, eta)
				if sens < 0 || sens > 1 {
					t.Fatalf("q̂=%v η=%v ℓ=%d: certSens %v outside [0, 1]", qhat, eta, ell, sens)
				}
				charged := float64(ell) * dtv * sens
				if charged > 1 {
					charged = 1
				}
				if lawTV > charged+d1+d2+1e-12 {
					t.Errorf("q=%v η=%v ℓ=%d: law TV %.3g exceeds charged certificate %.3g (sens %.3g, +trunc %.3g)",
						q, eta, ell, lawTV, charged, sens, d1+d2)
				}
			}
		}
	}
}

// TestEngineResetBitIdentical: a worker reusing one engine via Reset
// across trials (the sweep hot loop) must produce exactly the
// trajectories of fresh engines driven by the same streams — across a
// change of n, k and channel mid-sequence.
func TestEngineResetBitIdentical(t *testing.T) {
	nm3, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	nm5, err := noise.Uniform(5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		n      int64
		nm     *noise.Matrix
		counts []int64
	}
	specs := []spec{
		{100_000, nm3, []int64{40_000, 30_000, 20_000}},
		{1_000_000_000, nm5, []int64{300_000_000, 200_000_000, 200_000_000, 150_000_000, 150_000_000}},
		{50_000, nm3, []int64{20_000, 15_000, 10_000}},
	}
	phases := func(e *Engine) [][]int64 {
		var out [][]int64
		for p := 0; p < 2; p++ {
			if err := e.Stage1Phase(5); err != nil {
				t.Fatal(err)
			}
			out = append(out, append(e.Counts(), e.Undecided()))
		}
		for p := 0; p < 3; p++ {
			if err := e.Stage2Phase(22, 11); err != nil {
				t.Fatal(err)
			}
			out = append(out, append(e.Counts(), e.Undecided()))
		}
		return out
	}
	// Fresh engine per trial.
	var fresh [][][]int64
	var freshBudget []float64
	for i, s := range specs {
		e, err := New(s.n, s.nm, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Init(s.counts); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, phases(e))
		freshBudget = append(freshBudget, e.ErrorBudget())
	}
	// One engine, Reset between trials.
	reused, err := New(specs[0].n, specs[0].nm, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Init(specs[0].counts); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if i > 0 {
			if err := reused.Reset(s.n, s.nm, rng.New(uint64(100+i)), s.counts); err != nil {
				t.Fatal(err)
			}
		}
		got := phases(reused)
		for p := range got {
			for j := range got[p] {
				if got[p][j] != fresh[i][p][j] {
					t.Fatalf("trial %d phase %d: reused %v vs fresh %v", i, p, got[p], fresh[i][p])
				}
			}
		}
		if reused.ErrorBudget() != freshBudget[i] {
			t.Fatalf("trial %d: reused budget %v vs fresh %v", i, reused.ErrorBudget(), freshBudget[i])
		}
	}
}

// TestEngineQuantDeterministicAndBudgeted: quantized runs are a pure
// function of the seed regardless of cache sharing or priming, charge
// a budget at least as large as the exact run's (the coupling mass
// rides on top of truncation), and η = 0 reproduces the exact engine
// bit for bit.
func TestEngineQuantDeterministicAndBudgeted(t *testing.T) {
	nm, err := noise.Uniform(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{400_000, 300_000, 200_000, 100_000}
	run := func(eta float64, cache *LawCache) ([][]int64, float64) {
		e, err := New(1_000_000, nm, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetLawQuant(eta); err != nil {
			t.Fatal(err)
		}
		e.SetCache(cache)
		if err := e.Init(counts); err != nil {
			t.Fatal(err)
		}
		var trace [][]int64
		for p := 0; p < 4; p++ {
			if err := e.Stage2Phase(22, 11); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, append(e.Counts(), e.Undecided()))
		}
		return trace, e.ErrorBudget()
	}
	exactTrace, exactBudget := run(0, nil)
	plainTrace, plainBudget := run(0, nil)
	for p := range exactTrace {
		for j := range exactTrace[p] {
			if exactTrace[p][j] != plainTrace[p][j] {
				t.Fatal("exact engine is not seed-deterministic")
			}
		}
	}
	if exactBudget != plainBudget {
		t.Fatal("exact budgets differ across identical runs")
	}

	shared := NewLawCache()
	qTrace1, qBudget1 := run(1e-3, shared)
	// Second run against the now-primed shared cache: every phase is a
	// hit, results must not move.
	qTrace2, qBudget2 := run(1e-3, shared)
	qTrace3, qBudget3 := run(1e-3, nil) // private cache, all misses
	for p := range qTrace1 {
		for j := range qTrace1[p] {
			if qTrace1[p][j] != qTrace2[p][j] || qTrace1[p][j] != qTrace3[p][j] {
				t.Fatalf("quantized trajectory depends on cache state: %v / %v / %v",
					qTrace1[p], qTrace2[p], qTrace3[p])
			}
		}
	}
	if qBudget1 != qBudget2 || qBudget1 != qBudget3 {
		t.Fatalf("quantized budget depends on cache state: %v / %v / %v", qBudget1, qBudget2, qBudget3)
	}
	if h, m := shared.Stats(); h == 0 || m == 0 {
		t.Fatalf("shared cache saw (hits, misses) = (%d, %d); priming is not wired", h, m)
	}
	if qBudget1 < exactBudget {
		t.Fatalf("quantized budget %v below exact budget %v; the certificate charge is missing", qBudget1, exactBudget)
	}
	if qBudget1 == exactBudget {
		t.Fatalf("quantized budget equals exact budget %v; the law-level certificate was never charged", exactBudget)
	}
}

// TestSetLawQuantGuards: the η validation surface.
func TestSetLawQuantGuards(t *testing.T) {
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(1000, nm, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1e-3, 1, 1.5, math.NaN(), MinLawQuant / 2} {
		if err := e.SetLawQuant(bad); err == nil {
			t.Errorf("SetLawQuant(%v) accepted", bad)
		}
	}
	for _, good := range []float64{0, MinLawQuant, 1e-3, 0.5} {
		if err := e.SetLawQuant(good); err != nil {
			t.Errorf("SetLawQuant(%v) rejected: %v", good, err)
		}
	}
}
