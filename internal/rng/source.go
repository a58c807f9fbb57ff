package rng

// Source is the minimal generator core: a stream of uniform 64-bit
// words. Implementations must be deterministic given their seed and
// need not be safe for concurrent use; callers that share a Source
// across goroutines must fork per-goroutine streams instead (see
// ForkSeed).
type Source interface {
	// Uint64 returns the next uniformly distributed 64-bit value.
	Uint64() uint64
}

// SplitMix64 is the 64-bit SplitMix generator (Steele, Lea & Flood,
// OOPSLA 2014). It passes BigCrush, has period 2^64, and — crucially —
// maps any seed, including 0, to a well-mixed stream, which makes it
// the canonical seeder for the larger-state generators below.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 output permutation to x. It is a strong
// 64-bit mixer (avalanche-complete) used for deriving child seeds.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ForkSeed derives a child seed from a parent seed and a stream index.
// Distinct (seed, index) pairs yield decorrelated child seeds; this is
// how the experiment harness gives every trial its own reproducible
// stream.
func ForkSeed(seed uint64, index uint64) uint64 {
	// Feed both words through the SplitMix64 increment-then-mix
	// construction so that consecutive indices do not produce
	// correlated seeds.
	x := seed + 0x9e3779b97f4a7c15*(index+1)
	return Mix64(x + 0x632be59bd9b4e019)
}
