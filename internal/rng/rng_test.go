package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the public-domain reference
	// implementation (Vigna).
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("SplitMix64(0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestZeroValueSplitMix64(t *testing.T) {
	var s SplitMix64
	if got := s.Uint64(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("zero-value SplitMix64 first output = %#x, want %#x",
			got, uint64(0xe220a8397b1dcdaf))
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(42)
	b := NewXoshiro256(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed streams diverge at step %d: %#x vs %#x", i, av, bv)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := NewXoshiro256(1)
	b := NewXoshiro256(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for seeds 1 and 2 collide %d/1000 times", same)
	}
}

func TestForkSeedDecorrelated(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		s := ForkSeed(12345, i)
		if seen[s] {
			t.Fatalf("ForkSeed collision at index %d", i)
		}
		seen[s] = true
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(1)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(2)
	for _, n := range []uint64{1, 2, 4, 1024, 1 << 40} {
		for i := 0; i < 100; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnNonPositivePanics(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-ish check: 10 buckets, 100k draws; each bucket should
	// hold 10k ± 5 sigma (sigma ≈ sqrt(100000*0.1*0.9) ≈ 95).
	r := New(3)
	const draws = 100000
	var buckets [10]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(10)]++
	}
	for b, c := range buckets {
		if math.Abs(float64(c)-10000) > 5*95 {
			t.Fatalf("bucket %d holds %d draws, expected ~10000", b, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdge(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(7)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(9)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// For n=4, each value should appear in position 0 with probability
	// 1/4 over many trials.
	r := New(11)
	const trials = 40000
	var counts [4]int
	for i := 0; i < trials; i++ {
		counts[r.Perm(4)[0]]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-trials/4.0) > 5*math.Sqrt(trials*0.25*0.75) {
			t.Fatalf("value %d in position 0: %d times, want ~%d", v, c, trials/4)
		}
	}
}

// The two Fork tests check the fan-out idiom every caller uses: a
// child stream New(ForkSeed(parentSeed, index)).

func TestForkIndependence(t *testing.T) {
	seed := New(99).Uint64()
	a := New(ForkSeed(seed, 0))
	b := New(ForkSeed(seed, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams collide %d/1000 times", same)
	}
}

func TestForkDeterministicGivenParentState(t *testing.T) {
	p1 := New(99)
	p2 := New(99)
	a := New(ForkSeed(p1.Uint64(), 5))
	b := New(ForkSeed(p2.Uint64(), 5))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forks from identical parent states diverge")
		}
	}
}
