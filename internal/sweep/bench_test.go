package sweep

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/census"
	"github.com/gossipkit/noisyrumor/internal/obs"
)

// benchGrid is the 12-point threshold-straddling grid of the sweep
// throughput headline: binary + uniform, 2 ε × 3 δ at n = 10⁵, 25
// trials per point, quantized at eta (0 = exact).
func benchGrid(eta float64) Grid {
	return Grid{
		Matrices:   []string{"binary", "uniform"},
		Ks:         []int{2},
		ChannelEps: []float64{0.18, 0.3},
		Deltas:     []float64{0.05, 0.15, 0.3},
		Ns:         []int64{100_000},
		ProtoEps:   0.4,
		Trials:     25,
		LawQuant:   eta,
	}
}

// BenchmarkSweepGridPoints is the sweep-throughput headline recorded
// in BENCH_<n>.json: the exact-law grid, with the custom points/s
// metric benchjson derives the throughput number from.
func BenchmarkSweepGridPoints(b *testing.B) {
	g := benchGrid(0)
	pts, err := g.Points()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Runner{Seed: uint64(i + 1)}.RunGrid(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(pts) {
			b.Fatal("short grid")
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepGridPointsQuant is the same grid under the η = 10⁻³
// law cache — the Stage-2 fast path of the whole stack: one shared
// cache serves every trial of every point, and the per-worker engines
// are reused across trials. Reports points/s plus the realized cache
// hit rate (hit%) and capacity-evicted store attempts (dropped), from
// which benchjson derives the quantized throughput,
// law_cache_hit_rate and law_cache_dropped_stores metrics.
func BenchmarkSweepGridPointsQuant(b *testing.B) {
	g := benchGrid(1e-3)
	pts, err := g.Points()
	if err != nil {
		b.Fatal(err)
	}
	cache := census.NewLawCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Runner{Seed: uint64(i + 1), Cache: cache}.RunGrid(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(pts) {
			b.Fatal("short grid")
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(cache.HitRate()*100, "hit%")
	b.ReportMetric(float64(cache.DroppedStores()), "dropped")
}

// BenchmarkSweepGridPointsObs is BenchmarkSweepGridPoints with live
// metrics: registry-backed instrumentation on every layer (sweep,
// census, model) and a wall clock, no tracer — the -metrics-addr
// configuration of a CLI run. benchjson derives obs_overhead_pct from
// this and the uninstrumented headline; the observability contract
// budgets it at ≤ 2%.
func BenchmarkSweepGridPointsObs(b *testing.B) {
	g := benchGrid(0)
	pts, err := g.Points()
	if err != nil {
		b.Fatal(err)
	}
	inst := NewInstrumentation(obs.NewRegistry(), nil, obs.WallClock{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Runner{Seed: uint64(i + 1), Obs: inst}.RunGrid(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(pts) {
			b.Fatal("short grid")
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSweepBisect tracks the cost of a full Wilson-stopped
// critical-ε search at the E21 workload's quick scale.
func BenchmarkSweepBisect(b *testing.B) {
	spec := testBisect(80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (Runner{Seed: uint64(i + 1)}).RunBisect(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardMerge measures `sweep merge` itself: combining four
// shard journals (512 synthetic bisect evaluations, custody-split by
// residue) into the single-host journal, the cost benchjson records
// as sweep_shard_merge_secs. The shard files are built once outside
// the timer; each iteration re-reads, validates and rewrites the
// merged journal from scratch.
func BenchmarkShardMerge(b *testing.B) {
	const (
		shards = 4
		points = 512
	)
	dir := b.TempDir()
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard%d.json", s))
		ck, err := openCheckpointFile(paths[s], "bisect", 7, DefaultZ,
			Shard{Index: s, Of: shards}, ckTestSpec{Name: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		for k := s; k < points; k += shards {
			if err := ck.put(k, testPointResult(k)); err != nil {
				b.Fatal(err)
			}
		}
		if err := ck.close(); err != nil {
			b.Fatal(err)
		}
	}
	out := filepath.Join(dir, "merged.json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Merge(out, false, paths...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Points != points {
			b.Fatalf("merged %d points, want %d", rep.Points, points)
		}
	}
}

// BenchmarkSweepResume is the resume path on its own: RunGrid over a
// complete journal of grid-k2's spec (the repository benchmark's
// workload of that name: 1,344 points of 16 trials), which resolves the
// spec, opens and checks the journal, decodes every point's result and
// runs no trial. The journal is written outside the timer; a resume of
// a complete, canonical journal leaves it byte for byte, so every
// iteration reads the same file. `make profile` records its CPU
// profile.
func BenchmarkSweepResume(b *testing.B) {
	g := Grid{
		Matrices:   []string{"binary", "uniform"},
		Ks:         []int{2},
		ChannelEps: []float64{0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24, 0.26, 0.28, 0.30, 0.35},
		Deltas:     []float64{0.01, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30},
		Ns:         []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
		ProtoEps:   0.4,
		Trials:     16,
	}
	r := Runner{Seed: 1, Workers: 2, Checkpoint: filepath.Join(b.TempDir(), "ck.json")}
	if _, err := r.RunGrid(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.RunGrid(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 1344 || res.Salvaged != 0 {
			b.Fatalf("resumed %d points (%d salvaged), want all 1344", len(res.Points), res.Salvaged)
		}
	}
}
