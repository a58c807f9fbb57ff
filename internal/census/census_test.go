package census_test

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/dist"
	"github.com/gossipkit/noisyrumor/internal/model"
	"github.com/gossipkit/noisyrumor/internal/noise"
	"github.com/gossipkit/noisyrumor/internal/obs"
	"github.com/gossipkit/noisyrumor/internal/rng"
)

func newEngine(t testing.TB, n int64, nm *noise.Matrix, seed uint64, counts []int64) *census.Engine {
	t.Helper()
	e, err := census.New(n, nm, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(counts); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineGoldenDeterminism: a census trajectory is a pure function
// of the seed — phase by phase, across mixed Stage-1/Stage-2
// schedules — and different seeds diverge.
func TestEngineGoldenDeterminism(t *testing.T) {
	nm, err := noise.Uniform(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) [][]int64 {
		e := newEngine(t, 2_000_000_000, nm, seed, []int64{600_000_000, 500_000_000, 300_000_000, 0})
		var trace [][]int64
		for phase := 0; phase < 4; phase++ {
			if err := e.Stage1Phase(7); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, append(e.Counts(), e.Undecided()))
		}
		for phase := 0; phase < 4; phase++ {
			if err := e.Stage2Phase(22, 11); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, append(e.Counts(), e.Undecided()))
		}
		return trace
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different trajectories:\n%v\n%v", a, b)
	}
	if c := run(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestEngineConservation: the census plus the undecided count is a
// partition of n after every phase, with int64 counters that carry
// n = 2·10⁹ (past int32) without wrapping.
func TestEngineConservation(t *testing.T) {
	nm, err := noise.Reset(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2_000_000_000
	e := newEngine(t, n, nm, 3, []int64{700_000_000, 600_000_000, 0})
	check := func(stage string) {
		total := e.Undecided()
		for _, c := range e.Counts() {
			if c < 0 {
				t.Fatalf("%s: negative class count %v", stage, e.Counts())
			}
			total += c
		}
		if total != n {
			t.Fatalf("%s: census sums to %d, want %d", stage, total, n)
		}
	}
	for phase := 0; phase < 3; phase++ {
		if err := e.Stage1Phase(5); err != nil {
			t.Fatal(err)
		}
		check("stage 1")
	}
	for phase := 0; phase < 3; phase++ {
		if err := e.Stage2Phase(18, 9); err != nil {
			t.Fatal(err)
		}
		check("stage 2")
	}
	if e.ErrorBudget() > 1e-3 {
		t.Fatalf("error budget %g unexpectedly large at default tolerance", e.ErrorBudget())
	}
}

// TestEngineChiSquareVsProcessP is the equivalence contract at test
// scale (E20 carries the full version): the end-of-phase census
// produced by the aggregate engine and by a per-node process-P engine
// must be statistically indistinguishable, for uniform and
// non-uniform noise, in both stages.
func TestEngineChiSquareVsProcessP(t *testing.T) {
	const (
		n    = 1200
		k    = 3
		reps = 60
	)
	uniform, err := noise.Uniform(k, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	reset, err := noise.Reset(k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		nm     *noise.Matrix
		stage2 bool
	}{
		{"uniform/stage1", uniform, false},
		{"uniform/stage2", uniform, true},
		{"reset/stage1", reset, false},
		{"reset/stage2", reset, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := []int{n * 4 / 10, n * 3 / 10, 0}
			if tc.stage2 {
				// 10% stay undecided: exercises the undecided class's
				// Stage-2 transition (update to an opinion vs stay
				// silent) on both sides.
				counts = []int{n * 45 / 100, n * 35 / 100, n / 10}
			}
			perNode := make([]int, reps)
			agg := make([]int, reps)
			for rep := 0; rep < reps; rep++ {
				perNode[rep] = perNodePhase(t, tc.nm, n, counts, tc.stage2, uint64(1000+2*rep))
				agg[rep] = censusPhase(t, tc.nm, n, counts, tc.stage2, uint64(1001+2*rep)+9_000_000)
			}
			ha, hb := histograms(perNode, agg)
			res, err := dist.ChiSquareTwoSample(ha, hb, 5)
			if err != nil {
				t.Fatal(err)
			}
			if res.PValue < 1e-4 {
				t.Fatalf("census vs per-node P distinguishable: χ²=%.2f df=%d p=%.6f",
					res.Statistic, res.DF, res.PValue)
			}
		})
	}
}

// perNodePhase is an independent re-implementation of the protocol's
// phase-end rules (core/protocol.go: Stage-1 u.a.r. adoption, Stage-2
// ℓ-subsample majority with u.a.r. ties) on the per-node process-P
// engine — deliberately written twice (sim/e20.go has the experiment
// copy) so a transcription error in either reference cannot silently
// cancel against the engine under test. Keep all three in sync.
func perNodePhase(t *testing.T, nm *noise.Matrix, n int, counts []int, stage2 bool, seed uint64) int {
	t.Helper()
	ops, err := model.InitPlurality(n, counts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	eng, err := model.NewEngine(n, nm, model.ProcessP, r)
	if err != nil {
		t.Fatal(err)
	}
	rounds, ell := 4, 0
	if stage2 {
		rounds, ell = 10, 5
	}
	res, err := eng.RunPhase(ops, rounds)
	if err != nil {
		t.Fatal(err)
	}
	k := res.K
	buf := make([]int, k)
	for u := 0; u < n; u++ {
		total := int(res.Total[u])
		row := res.Counts[u*k : (u+1)*k]
		if !stage2 {
			if ops[u] != model.Undecided || total == 0 {
				continue
			}
			x := int(r.Uint64n(uint64(total)))
			for i, c := range row {
				x -= int(c)
				if x < 0 {
					ops[u] = model.Opinion(i)
					break
				}
			}
			continue
		}
		if total < ell {
			continue
		}
		sample := dist.SampleMultisetWithoutReplacement(r, row, ell, buf)
		best, ties, winner := -1, 0, 0
		for i, c := range sample {
			switch {
			case c > best:
				best, winner, ties = c, i, 1
			case c == best:
				ties++
				if r.Intn(ties) == 0 {
					winner = i
				}
			}
		}
		ops[u] = model.Opinion(winner)
	}
	out, _ := model.CountOpinions(ops, k)
	return out[0]
}

func censusPhase(t *testing.T, nm *noise.Matrix, n int, counts []int, stage2 bool, seed uint64) int {
	t.Helper()
	wide := make([]int64, len(counts))
	for i, c := range counts {
		wide[i] = int64(c)
	}
	e := newEngine(t, int64(n), nm, seed, wide)
	var err error
	if stage2 {
		err = e.Stage2Phase(10, 5)
	} else {
		err = e.Stage1Phase(4)
	}
	if err != nil {
		t.Fatal(err)
	}
	return int(e.Counts()[0])
}

// histograms bins both samples over one common equal-width grid —
// bin i of one histogram must mean the same value range as bin i of
// the other, or the positional chi-square comparison is blind to
// location shifts (and noisy under none).
func histograms(a, b []int) ([]int, []int) {
	lo, hi := a[0], a[0]
	for _, v := range a {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for _, v := range b {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	const bins = 10
	width := (hi - lo + bins) / bins
	if width < 1 {
		width = 1
	}
	ha := make([]int, bins)
	hb := make([]int, bins)
	for _, v := range a {
		ha[(v-lo)/width]++
	}
	for _, v := range b {
		hb[(v-lo)/width]++
	}
	return ha, hb
}

// TestEngineGuards: constructor and phase validation.
func TestEngineGuards(t *testing.T) {
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := census.New(0, nm, rng.New(1)); err == nil {
		t.Error("New accepted n=0")
	}
	if _, err := census.New(5, nil, rng.New(1)); err == nil {
		t.Error("New accepted nil matrix")
	}
	if _, err := census.New(5, nm, nil); err == nil {
		t.Error("New accepted nil rng")
	}
	e := newEngine(t, 10, nm, 1, []int64{5, 5, 0})
	if err := e.Init([]int64{5, 5, 5}); err == nil {
		t.Error("Init accepted counts beyond n")
	}
	if err := e.Init([]int64{-1, 0, 0}); err == nil {
		t.Error("Init accepted a negative count")
	}
	if err := e.Init([]int64{1, 2}); err == nil {
		t.Error("Init accepted a short count vector")
	}
	if err := e.Stage2Phase(10, 0); err == nil {
		t.Error("Stage2Phase accepted sample size 0")
	}
	if err := e.Stage1Phase(-1); err == nil {
		t.Error("Stage1Phase accepted negative rounds")
	}
	// Phase budgets that overflow int64 (or leave exact float64 range)
	// must be rejected, not wrapped.
	huge := newEngine(t, 1<<55, nm, 1, []int64{1 << 54, 1 << 54, 0})
	if err := huge.Stage1Phase(1 << 12); err == nil {
		t.Error("Stage1Phase accepted a budget beyond exact float64 range")
	}
	// The PR-4 wrap class, now rejected by checked.Mul64/Sum64 rather
	// than ad-hoc guards: a per-row counts×rounds product beyond int64,
	// and per-row products that fit while their total wraps.
	wrapRow := newEngine(t, math.MaxInt64, nm, 1, []int64{1<<62 + 1, 0, 0})
	if err := wrapRow.Stage1Phase(4); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Errorf("Stage1Phase row wrap = %v; want int64 overflow error", err)
	}
	wrapSum := newEngine(t, math.MaxInt64, nm, 1, []int64{1<<61 + 1, 1<<61 + 1, 0})
	if err := wrapSum.Stage1Phase(2); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Errorf("Stage1Phase total wrap = %v; want int64 overflow error", err)
	}
	if err := e.SetTolerance(0); err == nil {
		t.Error("SetTolerance accepted 0")
	}
}

// TestStage2NoMessages: with nobody pushing, a Stage-2 phase is the
// identity (nobody can reach the sample threshold).
func TestStage2NoMessages(t *testing.T) {
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 1000, nm, 1, []int64{0, 0, 0})
	if err := e.Stage2Phase(10, 5); err != nil {
		t.Fatal(err)
	}
	if e.Undecided() != 1000 {
		t.Fatalf("silent phase changed the census: %v / %d undecided", e.Counts(), e.Undecided())
	}
}

// TestInitOverflowingCountSum: count vectors whose running sum wraps
// int64 must be rejected. A post-add "total > n" check misses them —
// e.g. two counts of 2⁶² sum to 2⁶³, which wraps negative and passes
// the comparison, leaving a silently negative undecided mass.
func TestInitOverflowingCountSum(t *testing.T) {
	nm, err := noise.Uniform(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := census.New(1<<62, nm, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	huge := int64(1) << 61
	for _, counts := range [][]int64{
		{huge, huge, huge, huge},             // wraps to 2⁶³ exactly
		{huge, huge, huge - 1, huge + 1},     // wraps off-balance
		{1 << 62, 1 << 62, 1 << 62, 1 << 62}, // wraps to 0
	} {
		if err := e.Init(counts); err == nil {
			t.Errorf("Init accepted overflowing counts %v: undecided=%d", counts, e.Undecided())
		}
	}
	// The exact-fit boundary must still be accepted.
	if err := e.Init([]int64{huge, huge, 0, 0}); err != nil {
		t.Errorf("Init rejected counts summing exactly to n: %v", err)
	}
	if e.Undecided() != 0 {
		t.Errorf("exact-fit init left %d undecided", e.Undecided())
	}
}

// TestZeroTotalCensus: an all-zero census (every node undecided, no
// sources) must advance through both stage laws as the identity — no
// panic, no spontaneous opinions, zero truncation budget.
func TestZeroTotalCensus(t *testing.T) {
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 5000, nm, 3, []int64{0, 0, 0})
	if err := e.Stage1Phase(8); err != nil {
		t.Fatal(err)
	}
	if err := e.Stage2Phase(10, 5); err != nil {
		t.Fatal(err)
	}
	if e.Undecided() != 5000 {
		t.Fatalf("zero census produced opinions: %v (%d undecided)", e.Counts(), e.Undecided())
	}
	if e.ErrorBudget() != 0 {
		t.Fatalf("zero census accumulated budget %g", e.ErrorBudget())
	}
}

// TestSingleOpinionEngine: k = 1 (the degenerate identity channel) is
// a legal census — both stage laws must be total on it and conserve
// the population.
func TestSingleOpinionEngine(t *testing.T) {
	nm, err := noise.Identity(1)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 1000, nm, 4, []int64{400})
	if err := e.Stage1Phase(6); err != nil {
		t.Fatal(err)
	}
	if err := e.Stage2Phase(10, 5); err != nil {
		t.Fatal(err)
	}
	if got := e.Counts()[0] + e.Undecided(); got != 1000 {
		t.Fatalf("k=1 phases broke conservation: %d", got)
	}
	// With only one opinion in the pool, Stage 1 can only have grown
	// class 0.
	if e.Counts()[0] < 400 {
		t.Fatalf("k=1 Stage 1 shrank the only class: %v", e.Counts())
	}
}

// TestStage2SampleSizeOne: ℓ = 1 subsample majority (adopt the single
// sampled message) must run and conserve; its law is the post-noise
// composition law itself.
func TestStage2SampleSizeOne(t *testing.T) {
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 100_000, nm, 5, []int64{60_000, 30_000, 10_000})
	if err := e.Stage2Phase(2, 1); err != nil {
		t.Fatal(err)
	}
	counts := e.Counts()
	total := e.Undecided()
	for _, c := range counts {
		total += c
	}
	if total != 100_000 {
		t.Fatalf("ℓ=1 phase broke conservation: %d", total)
	}
	// Every node received ≈ 2 messages, so nearly everyone updated
	// with the composition law: class 0 should still lead, class 2
	// should have grown toward the composition (≈ 0.21 of n).
	if counts[0] <= counts[1] || counts[1] <= counts[2] {
		t.Fatalf("ℓ=1 update scrambled the ranking: %v", counts)
	}
	if counts[2] < 12_000 {
		t.Fatalf("ℓ=1 update did not move class 2 toward the composition: %v", counts)
	}
}

// TestMetricsWorkerShards pins Metrics.Worker: one shard bundle per
// worker index, returned again on later calls, nil for a nil bundle,
// and engines writing through different workers' shards expose the
// same registry as engines sharing the bundle itself.
func TestMetricsWorkerShards(t *testing.T) {
	var none *census.Metrics
	if none.Worker(3) != nil {
		t.Fatal("a nil bundle's worker shard must be nil")
	}
	nm, err := noise.Uniform(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	scrape := func(bundle func(m *census.Metrics, seed uint64) *census.Metrics) string {
		reg := obs.NewRegistry()
		m := census.NewMetrics(reg)
		for seed := uint64(1); seed <= 3; seed++ {
			e := newEngine(t, 1_000_000, nm, seed, []int64{400_000, 300_000, 300_000})
			e.SetObs(bundle(m, seed), nil, nil)
			for phase := 0; phase < 3; phase++ {
				if err := e.Stage1Phase(5); err != nil {
					t.Fatal(err)
				}
				if err := e.Stage2Phase(10, 5); err != nil {
					t.Fatal(err)
				}
			}
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	shared := scrape(func(m *census.Metrics, _ uint64) *census.Metrics { return m })
	sharded := scrape(func(m *census.Metrics, seed uint64) *census.Metrics {
		w := int(seed % 2)
		if m.Worker(w) != m.Worker(w) || m.Worker(0) == m.Worker(1) || m.Worker(w) == m {
			t.Fatal("Worker must return one shard bundle per index, distinct from the bundle")
		}
		return m.Worker(w)
	})
	if !strings.Contains(shared, "census_phases_total{stage=\"2\"} 9") {
		t.Fatalf("shared bundle recorded the wrong phase count:\n%s", shared)
	}
	// Shards add a histogram's sum in another order, so _sum lines
	// agree to rounding; every other line exactly.
	a, b := strings.Split(sharded, "\n"), strings.Split(shared, "\n")
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		if a[i] == b[i] {
			continue
		}
		na, va, _ := strings.Cut(a[i], " ")
		nb, vb, _ := strings.Cut(b[i], " ")
		x, errA := strconv.ParseFloat(va, 64)
		y, errB := strconv.ParseFloat(vb, 64)
		same = na == nb && strings.HasSuffix(na, "_sum") && errA == nil && errB == nil &&
			math.Abs(x-y) <= 1e-12*math.Abs(y)
	}
	if !same {
		t.Fatalf("worker shards expose differently from one shared bundle:\n--- shards ---\n%s--- shared ---\n%s", sharded, shared)
	}
}
