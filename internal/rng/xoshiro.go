package rng

import "math/bits"

// Xoshiro256 is the xoshiro256** 1.0 generator of Blackman and Vigna
// (2018): 256 bits of state, period 2^256−1, excellent statistical
// quality, and ~1ns per call. It is the default Source for all
// simulations in this repository.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed
// via SplitMix64, as recommended by the algorithm's authors. All seeds,
// including 0, produce a valid (non-zero) state.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	return &x
}

// Uint64 returns the next value of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	s := &x.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}
