package rng

import (
	"math"
	"math/bits"
)

// Rand wraps a Source with the variate helpers the simulators need.
// It is not safe for concurrent use; give each goroutine its own
// stream with New(ForkSeed(seed, index)).
type Rand struct {
	src Source
}

// New returns a Rand over the default generator family (Xoshiro256**)
// seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{src: NewXoshiro256(seed)}
}

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint64n returns a uniform value in [0, n) without modulo bias, using
// Lemire's multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.src.Uint64() & (n - 1)
	}
	x := r.src.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.src.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. It is used only by statistical tests, never on simulation hot
// paths, so the ~27% rejection rate is acceptable.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1 by inversion.
func (r *Rand) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], keeping Log finite.
	return -math.Log(1 - r.Float64())
}

// Shuffle permutes n elements in place using swap, via Fisher–Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
