package sim

import (
	"reflect"
	"testing"

	"github.com/gossipkit/noisyrumor/internal/rng"
	"github.com/gossipkit/noisyrumor/internal/sweep"
)

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []uint64 {
		cfg := Config{Seed: 7, Workers: workers}
		return Parallel(cfg, 7, 32, func(trial int, r *rng.Rand) uint64 {
			return r.Uint64() ^ uint64(trial)
		})
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("trial %d differs between worker counts: %x vs %x", i, one[i], four[i])
		}
	}
}

func TestParallelOrderPreserved(t *testing.T) {
	cfg := Config{Seed: 1, Workers: 8}
	out := Parallel(cfg, 1, 100, func(trial int, _ *rng.Rand) int { return trial * 2 })
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelZeroTrials(t *testing.T) {
	out := Parallel(Config{Seed: 1}, 1, 0, func(int, *rng.Rand) int { return 1 })
	if len(out) != 0 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestParallelSeedSeparation(t *testing.T) {
	cfg := Config{Seed: 2, Workers: 2}
	a := Parallel(cfg, 100, 8, func(_ int, r *rng.Rand) uint64 { return r.Uint64() })
	b := Parallel(cfg, 200, 8, func(_ int, r *rng.Rand) uint64 { return r.Uint64() })
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d trials collided across seeds", same)
	}
}

func TestPick(t *testing.T) {
	if pick(Config{Quick: true}, 10, 2) != 2 {
		t.Fatal("quick pick wrong")
	}
	if pick(Config{}, 10, 2) != 10 {
		t.Fatal("full pick wrong")
	}
}

// TestBiasedCounts: the E-suite's biased starts (sweep.InitialCounts)
// seat all s nodes, opinion 0 ahead of every rival by ⌊δ·s⌋ and
// holding the remainder of the even split.
func TestBiasedCounts(t *testing.T) {
	counts, err := sweep.InitialCounts(1003, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// lead ⌊0.2·1003⌋ = 200; the other 803 split 200 each, 3 left over.
	if want := []int64{403, 200, 200, 200}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts %v, want %v", counts, want)
	}
}

func TestBiasedDistribution(t *testing.T) {
	c := biasedDistribution(4, 0.2)
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("sums to %v", sum)
	}
	for i := 1; i < 4; i++ {
		d := c[0] - c[i]
		if d < 0.199999 || d > 0.200001 {
			t.Fatalf("gap to rival %d is %v", i, d)
		}
	}
}
