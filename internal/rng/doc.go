// Package rng provides the deterministic pseudo-random number substrate
// used by every simulator and sampler in this repository.
//
// All experiments in the paper reproduction must be replayable from a
// single published seed, including experiments that fan trials out over
// a worker pool. The package therefore provides:
//
//   - small, allocation-free generator cores (SplitMix64 and
//     Xoshiro256**) implementing the Source interface;
//   - a Rand wrapper with the uniform-variate helpers the simulators
//     need (Uint64n without modulo bias, Float64, Intn, Perm, Shuffle,
//     Bernoulli);
//   - deterministic stream forking (ForkSeed), so that trial i of
//     experiment E always sees the stream New(ForkSeed(seed, i)) no
//     matter how many workers run concurrently.
//
// math/rand is deliberately not used: its global functions are
// lock-guarded and its Source cannot be forked deterministically into
// independent streams keyed by (seed, index).
package rng
